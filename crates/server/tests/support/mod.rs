//! Shared test support: unique temp paths.
//!
//! Tests in one binary run in parallel, and several test binaries may run
//! at once, so every socket path and scratch directory is unique per call:
//! the process id, a process-wide counter, and the caller's tag.

#![allow(dead_code)] // each test binary uses its own subset

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

static NEXT: AtomicU64 = AtomicU64::new(0);

/// A fresh temp path (nothing exists there) for a socket or file.
pub fn unique_path(tag: &str) -> PathBuf {
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let path = std::env::temp_dir().join(format!("xmlta-{}-{n}-{tag}", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_dir_all(&path);
    path
}

/// A fresh, empty temp directory.
pub fn unique_dir(tag: &str) -> PathBuf {
    let dir = unique_path(tag);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}
