//! Round-trip properties of the textual instance format, and agreement of
//! the cached engine path with the direct one (outcomes compared whole,
//! counterexample trees included).
//!
//! The printed form is canonical, so parse∘print is the identity **on
//! printed forms**: `print(parse(print(x))) == print(x)`. On ASTs it is the
//! identity for regex/RE+ rules and automaton blocks (checked here through
//! the printed fixpoint plus semantic probes); NTA transition languages
//! round-trip up to language equivalence (regex extraction), which the
//! typecheck-outcome agreement checks cover.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use typecheck_core::{typecheck, typecheck_with, Instance, Schema};
use xmlta_hardness::workloads::{self, Workload};
use xmlta_service::{parse_instance, print_instance, SchemaCache};

/// A failing `DTD(RE+)` chain: the input is `s0 -> s1+`, …,
/// `s{levels-1} -> leaf+`, the transducer is the identity, and the output
/// drops the `+` at level `narrow`. So `t_min` passes and `t_vast` fails,
/// and the canonical counterexample (Corollary 38) is a different tree
/// from the one the Lemma 14 engine finds.
fn failing_replus_chain(levels: usize, narrow: usize) -> Workload {
    let child = |i: usize| {
        if i + 1 < levels {
            format!("s{}", i + 1)
        } else {
            "leaf".to_string()
        }
    };
    let (mut input, mut output, mut rules) = (String::new(), String::new(), String::new());
    for i in 0..levels {
        input.push_str(&format!("  s{i} -> @replus {}+\n", child(i)));
        let plus = if i == narrow { "" } else { "+" };
        output.push_str(&format!("  s{i} -> @replus {}{plus}\n", child(i)));
        rules.push_str(&format!("  (q, s{i}) -> s{i}(q)\n"));
    }
    let source = format!(
        "input dtd {{\n  start s0\n{input}}}\noutput dtd {{\n  start s0\n{output}}}\n\
         transducer {{\n  states q\n  initial q\n{rules}  (q, leaf) -> leaf\n}}\n"
    );
    Workload {
        name: format!("replus-fail/levels={levels},narrow={narrow}"),
        instance: parse_instance(&source).expect("RE+ chain parses"),
        expect_typechecks: false,
    }
}

/// All-DTD workload families, spanning regex, RE+, NFA, and DFA rules plus
/// XPath selectors.
fn dtd_workloads() -> Vec<Workload> {
    vec![
        failing_replus_chain(3, 1),
        workloads::filtering_family(3),
        workloads::failing_filtering_family(2),
        workloads::copying_family(2),
        workloads::deletion_family(2),
        workloads::random_layered_family(5, 3, 3),
        workloads::nfa_schema_family(3),
        workloads::replus_family(3),
        workloads::xpath_family(3),
        workloads::regex_schema_family(4),
        workloads::example11_workload(),
    ]
}

/// print → parse → print reaches a fixpoint, and the reparsed instance
/// has the same typecheck outcome.
fn assert_roundtrip(name: &str, instance: &Instance) {
    let printed = print_instance(instance).unwrap_or_else(|e| panic!("{name}: unprintable: {e}"));
    let reparsed = parse_instance(&printed)
        .unwrap_or_else(|e| panic!("{name}: reparse failed: {e}\n--- printed ---\n{printed}"));
    let reprinted =
        print_instance(&reparsed).unwrap_or_else(|e| panic!("{name}: reprint failed: {e}"));
    assert_eq!(
        printed, reprinted,
        "{name}: printed form must be a parse∘print fixpoint"
    );
    let direct = typecheck(instance).unwrap_or_else(|e| panic!("{name}: direct engine: {e}"));
    let via_text = typecheck(&reparsed).unwrap_or_else(|e| panic!("{name}: reparsed engine: {e}"));
    assert_eq!(
        direct.type_checks(),
        via_text.type_checks(),
        "{name}: outcome must survive the textual round-trip"
    );
}

#[test]
fn workload_families_roundtrip() {
    for w in dtd_workloads() {
        assert_roundtrip(&w.name, &w.instance);
    }
}

#[test]
fn nta_instances_roundtrip_semantically() {
    // NTA transition languages print as regexes extracted by state
    // elimination, which is language-preserving but not AST-preserving, so
    // (unlike DTDs and transducers) no textual fixpoint is promised.
    // Instead: the reparsed NTAs accept exactly the same trees and the
    // typecheck outcome survives.
    for n in [2usize, 3, 4] {
        let w = workloads::delrelab_family(n);
        let printed = print_instance(&w.instance).expect("printable");
        let reparsed =
            parse_instance(&printed).unwrap_or_else(|e| panic!("{}: {e}\n{printed}", w.name));
        let pairs = [
            (&w.instance.input, &reparsed.input),
            (&w.instance.output, &reparsed.output),
        ];
        for (orig, back) in pairs {
            let (a, b) = match (orig, back) {
                (Schema::Nta(a), Schema::Nta(b)) => (a, b),
                other => panic!("{}: schema kind changed: {other:?}", w.name),
            };
            assert_eq!(a.num_states(), b.num_states());
            for t in xmlta_tree::random::enumerate_trees(w.instance.alphabet.len(), 2, 2) {
                assert_eq!(a.accepts(&t), b.accepts(&t), "{}: tree {t:?}", w.name);
            }
        }
        let direct = typecheck(&w.instance).expect("direct engine");
        let via_text = typecheck(&reparsed).expect("reparsed engine");
        assert_eq!(direct.type_checks(), via_text.type_checks(), "{}", w.name);
    }
}

#[test]
fn dfa_compiled_schemas_roundtrip_structurally() {
    // DFA rules print as exact automaton blocks: the reparsed rule tables
    // must match state for state, not just language for language.
    let w = workloads::filtering_family(2);
    let (din, dout) = match (&w.instance.input, &w.instance.output) {
        (Schema::Dtd(i), Schema::Dtd(o)) => (i.compile_to_dfas(), o.compile_to_dfas()),
        _ => unreachable!("filtering instances are DTD-based"),
    };
    let compiled = Instance::dtds(
        w.instance.alphabet.clone(),
        din,
        dout,
        w.instance.transducer.clone(),
    );
    let printed = print_instance(&compiled).expect("printable");
    let reparsed = parse_instance(&printed).expect("reparses");
    let (din2, din1) = match (&reparsed.input, &compiled.input) {
        (Schema::Dtd(a), Schema::Dtd(b)) => (a, b),
        _ => unreachable!(),
    };
    for (sym, lang) in din1.rules() {
        let lang2 = din2.rule(sym).expect("rule survives");
        let (d1, d2) = match (lang, lang2) {
            (xmlta_schema::StringLang::Dfa(a), xmlta_schema::StringLang::Dfa(b)) => (a, b),
            other => panic!("rule representation changed: {other:?}"),
        };
        assert_eq!(d1.num_states(), d2.num_states());
        assert_eq!(d1.initial_state(), d2.initial_state());
        for q in 0..d1.num_states() as u32 {
            assert_eq!(d1.is_final_state(q), d2.is_final_state(q));
            for l in 0..d1.alphabet_size() as u32 {
                assert_eq!(d1.step(q, l), d2.step(q, l), "state {q} letter {l}");
            }
        }
    }
    assert_roundtrip("filtering/compiled", &compiled);
}

#[test]
fn cached_and_uncached_engines_agree_on_workloads() {
    let cache = SchemaCache::new();
    for w in dtd_workloads() {
        let direct = typecheck(&w.instance).expect("direct engine");
        // Twice through the cache: once compiling, once hitting.
        for round in 0..2 {
            let cached = typecheck_with(&w.instance, &cache).expect("cached engine");
            assert_eq!(direct, cached, "{} (cache round {round})", w.name);
            assert_eq!(
                direct.type_checks(),
                w.expect_typechecks,
                "{} expected outcome",
                w.name
            );
        }
    }
    let stats = cache.stats();
    assert!(stats.schema_hits > 0, "second rounds must hit: {stats:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random layered instances (regex-rule DTDs + random transducers)
    /// and failing `DTD(RE+)` chains reach the printed fixpoint, agree on
    /// outcome after reparse, and get the same outcome, witness included,
    /// from the cached and direct engine paths.
    #[test]
    fn random_layered_instances_roundtrip(seed in 0u64..10_000) {
        let levels = 2 + seed as usize % 3;
        for w in [
            workloads::random_layered_family(seed, 3, 3),
            failing_replus_chain(levels, seed as usize / 3 % levels),
        ] {
            assert_roundtrip(&w.name, &w.instance);
            let cache = SchemaCache::new();
            let direct = typecheck(&w.instance).expect("direct");
            let cached = typecheck_with(&w.instance, &cache).expect("cached");
            prop_assert_eq!(direct, cached, "{}", w.name);
        }
    }

    /// The transducer section round-trips transformations, not just
    /// shapes: the reparsed transducer maps sample documents to the same
    /// output trees.
    #[test]
    fn reparsed_transducer_agrees_on_documents(seed in 0u64..10_000) {
        let w = workloads::random_layered_family(seed, 3, 3);
        let printed = print_instance(&w.instance).expect("printable");
        let reparsed = parse_instance(&printed).expect("reparses");
        let din = match &w.instance.input {
            Schema::Dtd(d) => d,
            Schema::Nta(_) => unreachable!("layered instances are DTD-based"),
        };
        if let Some(doc) = din.sample() {
            prop_assert_eq!(
                w.instance.transducer.apply(&doc),
                reparsed.transducer.apply(&doc),
                "sample document must transform identically"
            );
        }
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x5eed);
        let t = xmlta_transducer::random::random_transducer(
            &mut rng,
            w.instance.alphabet.len().max(1),
            xmlta_transducer::random::RandomTransducerParams::default(),
        );
        // Deletion-heavy random transducers too (selector-free class).
        let inst = Instance {
            alphabet: w.instance.alphabet.clone(),
            input: w.instance.input.clone(),
            output: w.instance.output.clone(),
            transducer: t,
        };
        let printed = print_instance(&inst).expect("printable");
        let reparsed = parse_instance(&printed).expect("reparses");
        prop_assert_eq!(&print_instance(&reparsed).expect("reprint"), &printed);
        if let Some(doc) = din.sample() {
            prop_assert_eq!(inst.transducer.apply(&doc), reparsed.transducer.apply(&doc));
        }
    }
}

#[test]
fn parse_errors_carry_positions() {
    let bad = "input dtd {\n  start r\n  r -> ((x\n}\n";
    let err = parse_instance(bad).unwrap_err();
    assert_eq!(err.loc.line, 3);
    assert!(err.loc.col > 8, "column points into the rhs: {err}");

    let missing = parse_instance("").unwrap_err();
    assert!(missing.message.contains("no input schema"), "{missing}");

    let undeclared = "\
input nta {
  states a b
  final b
  (a, x) -> a c
}
output nta {
  states a
  final a
  (a, x) -> eps
}
transducer {
  states q
  initial q
  (q, x) -> x
}
";
    let err = parse_instance(undeclared).unwrap_err();
    assert_eq!(err.loc.line, 4);
    assert!(err.message.contains("undeclared state `c`"), "{err}");

    let dup = "\
input dtd {
  start r
  r -> x
  r -> x x
}
";
    let err = parse_instance(dup).unwrap_err();
    assert_eq!(err.loc.line, 4);
    assert!(err.message.contains("duplicate rule"), "{err}");

    let bad_rhs = "\
input dtd {
  start r
  r -> x
}
output dtd {
  start r
  r -> x
}
transducer {
  states q
  initial q
  (q, r) -> r(q
}
";
    let err = parse_instance(bad_rhs).unwrap_err();
    assert_eq!(err.loc.line, 12, "rhs error pinned to its rule line: {err}");
}
