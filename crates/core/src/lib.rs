//! Sound and complete typechecking of simple XML transformations.
//!
//! This crate is the primary contribution of the reproduction: it decides,
//! for an input schema `S_in`, an output schema `S_out`, and a top–down tree
//! transducer `T`, whether `T(t) ∈ S_out` for **every** `t ∈ S_in`
//! (Definition 9 of Martens & Neven), and produces a counterexample when the
//! answer is no (Corollary 38).
//!
//! Three complete engines implement the paper's algorithms:
//!
//! * [`lemma14`] — the workhorse for DTD-based schemas (Theorems 15 and 23):
//!   a behavior-profile reformulation of the Lemma 14 automaton
//!   construction, polynomial for `T^{C,K}_trac` transducers over
//!   `DTD(DFA)`s;
//! * [`delrelab`] — the Theorem 20 pipeline for deleting relabelings
//!   against bottom-up deterministic complete tree automata (Lemma 19
//!   forward image + `#`-elimination + product emptiness);
//! * [`replus`] — the Section 5 grammar algorithm for *arbitrary*
//!   transducers against `DTD(RE+)` schemas (Theorem 37).
//!
//! The choice between them is made once, by [`Engine::of`], from the
//! instance's schema classes. [`typecheck_with`] runs the chosen engine and
//! reads its per-schema products — compiled DTDs for Lemma 14, the
//! Theorem 20 `B_out` — through the [`Products`] trait, so a caller that
//! caches products (the service layer's schema cache) supplies them and
//! nothing else: [`typecheck`] is `typecheck_with(instance, &Direct)`.
//!
//! A brute-force reference engine ([`naive`]) cross-validates all three on
//! small instances, and [`almost_always`] implements Corollary 39.

pub mod almost_always;
pub mod behavior;
pub mod delrelab;
pub mod instance;
pub mod lemma14;
pub mod naive;
pub mod replus;

pub use instance::{Instance, Schema};
pub use lemma14::typecheck_dtds;

use std::sync::Arc;
use xmlta_schema::{Dtd, Nta};
use xmlta_transducer::translate;

/// The outcome of a typechecking run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// Every valid input produces a valid output.
    TypeChecks,
    /// Some valid input produces an invalid output.
    CounterExample(CounterExample),
}

impl Outcome {
    /// Whether the instance typechecks.
    pub fn type_checks(&self) -> bool {
        matches!(self, Outcome::TypeChecks)
    }

    /// The counterexample, if any.
    pub fn counter_example(&self) -> Option<&CounterExample> {
        match self {
            Outcome::TypeChecks => None,
            Outcome::CounterExample(ce) => Some(ce),
        }
    }
}

/// A witness that the instance does not typecheck: a valid input tree whose
/// image violates the output schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterExample {
    /// The input tree (`∈ S_in`).
    pub input: xmlta_tree::Tree,
    /// Its image `T(input)`; `None` when the image is not a tree at all
    /// (the empty hedge or a multi-rooted hedge).
    pub output: Option<xmlta_tree::Tree>,
}

/// Errors raised by the typechecking engines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TypecheckError {
    /// The engine/schema combination is not supported.
    Unsupported(String),
    /// A resource cap was exceeded (profile explosion etc.).
    ResourceLimit(String),
    /// A selector could not be eliminated (non-linear XPath).
    Selector(String),
}

impl std::fmt::Display for TypecheckError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TypecheckError::Unsupported(m) => write!(f, "unsupported instance: {m}"),
            TypecheckError::ResourceLimit(m) => write!(f, "resource limit exceeded: {m}"),
            TypecheckError::Selector(m) => write!(f, "selector translation failed: {m}"),
        }
    }
}

impl std::error::Error for TypecheckError {}

/// The engine the paper's tractability frontier assigns to an instance,
/// read off its *source* schemas alone (never the transducer). This is the
/// one place the choice is made; every caller reads it from here.
#[derive(Debug, Clone, Copy)]
pub enum Engine<'a> {
    /// `DTD(RE+)` on both sides: the Section 5 engine, polynomial for every
    /// transducer (Theorem 37), with Corollary 38's canonical witness.
    Replus(&'a Dtd, &'a Dtd),
    /// Any other DTD pair: the Lemma 14 engine (Theorems 15 / 23). Non-DFA
    /// rules are determinized first — the exponential worst case this
    /// hides is the paper's PSPACE lower bound for `DTD(NFA)`.
    Lemma14(&'a Dtd, &'a Dtd),
    /// Tree automata on both sides: the Theorem 20 engine, which requires a
    /// deleting relabeling and a `DTAc` output automaton.
    Delrelab(&'a Nta, &'a Nta),
    /// A DTD on one side and a tree automaton on the other.
    Unsupported,
}

impl<'a> Engine<'a> {
    /// The engine for `instance`.
    pub fn of(instance: &'a Instance) -> Engine<'a> {
        match (&instance.input, &instance.output) {
            (Schema::Dtd(din), Schema::Dtd(dout))
                if din.is_replus_dtd() && dout.is_replus_dtd() =>
            {
                Engine::Replus(din, dout)
            }
            (Schema::Dtd(din), Schema::Dtd(dout)) => Engine::Lemma14(din, dout),
            (Schema::Nta(ain), Schema::Nta(aout)) => Engine::Delrelab(ain, aout),
            _ => Engine::Unsupported,
        }
    }
}

/// The per-schema products the engines read: built fresh for every check
/// ([`Direct`]) or served from a cache shared across checks. A supplier
/// changes where the work happens, never the outcome.
pub trait Products {
    /// A DTD as the Lemma 14 engine reads it: the source itself or its
    /// compiled `DTD(DFA)` form (the engine determinizes any rule that is
    /// not already a DFA).
    fn compile_dtd(&self, dtd: &Dtd) -> Arc<Dtd>;

    /// The Theorem 20 `B_out` product of `aout` over the joint alphabet
    /// `sigma` ([`delrelab::joint_sigma`]), or the
    /// [`delrelab::require_dtac`] failure.
    fn delrelab_bout(&self, aout: &Nta, sigma: usize) -> Result<Arc<Nta>, TypecheckError>;
}

/// Products built from the source schemas on every check.
pub struct Direct;

impl Products for Direct {
    fn compile_dtd(&self, dtd: &Dtd) -> Arc<Dtd> {
        // `Dtd` shares its rule map, so this clone is an `Arc` bump.
        Arc::new(dtd.clone())
    }

    fn delrelab_bout(&self, aout: &Nta, sigma: usize) -> Result<Arc<Nta>, TypecheckError> {
        delrelab::require_dtac(aout)?;
        Ok(Arc::new(delrelab::bout_product(aout, sigma)))
    }
}

/// Typechecks an instance with products built fresh:
/// [`typecheck_with`]`(instance, &Direct)`.
pub fn typecheck(instance: &Instance) -> Result<Outcome, TypecheckError> {
    typecheck_with(instance, &Direct)
}

/// Typechecks an instance on the engine [`Engine::of`] names, reading
/// per-schema products from `products`. Transducers with selectors are
/// first translated to plain transducers (Theorems 23 / 29), so a selector
/// error wins over every engine error.
pub fn typecheck_with(
    instance: &Instance,
    products: &impl Products,
) -> Result<Outcome, TypecheckError> {
    let expanded;
    let transducer = if instance.transducer.uses_selectors() {
        expanded = translate::expand_selectors_with_alphabet(
            &instance.transducer,
            instance.alphabet_size(),
        )
        .map_err(|e| TypecheckError::Selector(e.to_string()))?;
        &expanded
    } else {
        &instance.transducer
    };
    let sigma = instance.alphabet_size();
    match Engine::of(instance) {
        Engine::Replus(din, dout) => replus::typecheck_replus(din, dout, transducer, sigma),
        Engine::Lemma14(din, dout) => lemma14::typecheck_dtds(
            &products.compile_dtd(din),
            &products.compile_dtd(dout),
            transducer,
            sigma,
        ),
        Engine::Delrelab(ain, aout) => {
            delrelab::typecheck_delrelab(ain, aout, transducer, sigma, products)
        }
        Engine::Unsupported => Err(TypecheckError::Unsupported(
            "mixed DTD/tree-automaton schemas: convert the DTD side with \
             xmlta_schema::convert::dtd_to_nta first"
                .into(),
        )),
    }
}
