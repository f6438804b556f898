//! Property-style tests of provenance. The data manager keys on each
//! history node's structural digest, minted with the node: every digest
//! must be the hash of its subtree, and provenance/invocation keys must
//! be functions of *structure*, not of construction order, sharing, or
//! token arrival order. The XML export, `history_to_xml` /
//! `history_from_xml`, must round-trip arbitrarily deep and wide trees
//! exactly, and their text as deep as the XML parser's nesting bound.

use moteur::{
    history_from_xml, history_to_xml, invocation_key, provenance_key, DataStore, DataValue,
    Enactment, EnactorConfig, Fnv1a, History, HistoryNode, InputData, ServiceBinding,
    ServiceProfile, SimBackend, StoreConfig, Workflow,
};
use moteur_gridsim::GridConfig;
use moteur_wrapper::crest_lines_example;
use std::sync::Arc;

/// Tiny deterministic LCG so the "random" trees are reproducible
/// without an external crate.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.0 >> 33
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn random_tree(rng: &mut Lcg, depth: usize) -> Arc<History> {
    if depth == 0 || rng.below(4) == 0 {
        return History::source(format!("s{}", rng.below(5)), rng.below(100) as u32);
    }
    let n_children = 1 + rng.below(3) as usize;
    let inputs = (0..n_children)
        .map(|_| random_tree(rng, depth - 1))
        .collect();
    History::derived(format!("p{}", rng.below(7)), inputs)
}

fn round_trips(history: &Arc<History>) {
    let el = history_to_xml(history);
    let back = history_from_xml(&el).expect("own XML parses");
    assert_eq!(&back, history);
    // And through the textual form, as `moteur run --provenance` emits.
    let reparsed = moteur_xml::parse(&el.to_pretty_string()).expect("pretty form parses");
    assert_eq!(&history_from_xml(&reparsed).expect("parses"), history);
}

/// `stages` derivations over one source: `stages + 1` nested elements.
fn chain(stages: usize) -> Arc<History> {
    let mut h = History::source("origin", 0);
    for i in 0..stages {
        h = History::derived(format!("stage{i}"), vec![h]);
    }
    h
}

#[test]
fn deep_history_chains_round_trip() {
    // A 300-deep derivation chain — far beyond any real workflow, to
    // catch accidental recursion limits or depth-dependent rendering.
    let h = chain(300);
    let el = history_to_xml(&h);
    assert_eq!(&history_from_xml(&el).expect("own XML parses"), &h);
    // Its text nests deeper than the XML parser's bound, which keeps a
    // hostile document from overflowing the stack: it is refused with
    // the typed error, and the deepest chain within the bound
    // round-trips through its text.
    let err = moteur_xml::parse(&el.to_pretty_string()).unwrap_err();
    assert_eq!(
        err.kind,
        moteur_xml::XmlErrorKind::TooDeep {
            limit: moteur_xml::MAX_XML_DEPTH
        }
    );
    round_trips(&chain(moteur_xml::MAX_XML_DEPTH - 1));
}

#[test]
fn wide_history_trees_round_trip() {
    // One synchronization-style node gathering 500 inputs.
    let inputs: Vec<Arc<History>> = (0..500).map(|i| History::source("src", i)).collect();
    let h = History::derived("barrier", inputs);
    round_trips(&h);
}

#[test]
fn random_history_trees_round_trip() {
    let mut rng = Lcg(2006);
    for _ in 0..200 {
        round_trips(&random_tree(&mut rng, 6));
    }
}

/// The digest rule, re-derived from the tree alone: a source hashes tag
/// 1, its name and its position; a derived node hashes tag 2, its
/// processor, its input count and its inputs' digests in order.
fn rehash(history: &History) -> u64 {
    let mut h = Fnv1a::new();
    match history.node() {
        HistoryNode::Source { source, position } => {
            h.write(&[1]);
            h.write_str(source);
            h.write_u64(u64::from(*position));
        }
        HistoryNode::Derived { processor, inputs } => {
            h.write(&[2]);
            h.write_str(processor);
            h.write_u64(inputs.len() as u64);
            for input in inputs.iter() {
                h.write_u64(rehash(input));
            }
        }
    }
    h.finish()
}

#[test]
fn every_digest_is_the_structural_hash_of_its_tree() {
    let mut rng = Lcg(2006);
    for _ in 0..200 {
        let tree = random_tree(&mut rng, 6);
        assert_eq!(tree.digest(), rehash(&tree));
        // A tree rebuilt from its export carries the same digest.
        let back = history_from_xml(&history_to_xml(&tree)).expect("own XML parses");
        assert_eq!(back.digest(), tree.digest());
    }
}

#[test]
fn any_structural_change_changes_the_key() {
    let value = DataValue::from("payload");
    let key = |h: &History| provenance_key(&value, h).unwrap();
    let a = || History::source("a", 1);
    let b = || History::source("b", 2);
    let base = key(&History::derived("combine", vec![a(), b()]));
    for (what, changed) in [
        ("processor name", History::derived("merge", vec![a(), b()])),
        (
            "source name",
            History::derived("combine", vec![History::source("c", 1), b()]),
        ),
        (
            "source position",
            History::derived("combine", vec![History::source("a", 3), b()]),
        ),
        ("input order", History::derived("combine", vec![b(), a()])),
        ("fewer inputs", History::derived("combine", vec![a()])),
        (
            "more inputs",
            History::derived("combine", vec![a(), b(), b()]),
        ),
        (
            "nesting",
            History::derived("combine", vec![History::derived("combine", vec![a(), b()])]),
        ),
    ] {
        assert_ne!(key(&changed), base, "{what}");
    }
}

#[test]
fn provenance_key_ignores_sharing_and_construction_order() {
    // Build the same logical tree twice: once with every node freshly
    // allocated left-to-right, once sharing one Arc and building
    // right-to-left. The key must only see the structure.
    let fresh = History::derived(
        "combine",
        vec![History::source("a", 1), History::source("b", 2)],
    );
    let shared_b = History::source("b", 2);
    let shared_a = History::source("a", 1);
    let rebuilt = History::derived("combine", vec![shared_a, shared_b]);
    let value = DataValue::from("payload");
    assert_eq!(
        provenance_key(&value, &fresh),
        provenance_key(&value, &rebuilt)
    );
    // Swapping the children is a *different* derivation.
    let swapped = History::derived(
        "combine",
        vec![History::source("b", 2), History::source("a", 1)],
    );
    assert_ne!(
        provenance_key(&value, &fresh),
        provenance_key(&value, &swapped)
    );
}

#[test]
fn invocation_key_is_stable_for_keys_however_obtained() {
    let h = History::derived("p", vec![History::source("s", 0)]);
    let k1 = provenance_key(&DataValue::from("x"), &h).unwrap();
    let k2 = provenance_key(&DataValue::from("y"), &h).unwrap();
    // Recomputing the same pkeys later (e.g. in a different process)
    // yields the same invocation key.
    let again1 = provenance_key(&DataValue::from("x"), &h).unwrap();
    let again2 = provenance_key(&DataValue::from("y"), &h).unwrap();
    assert_eq!(
        invocation_key("svc", 42, &[k1, k2]),
        invocation_key("svc", 42, &[again1, again2])
    );
    // Port order is part of the invocation, so swapping inputs misses.
    assert_ne!(
        invocation_key("svc", 42, &[k1, k2]),
        invocation_key("svc", 42, &[k2, k1])
    );
}

/// Token *arrival order* must not affect memoization: a store populated
/// by an in-order ideal-grid run serves a run whose completions arrive
/// out of order (the stochastic EGEE grid under data parallelism), and
/// vice versa — hits are keyed by provenance, not by scheduling.
#[test]
fn memoization_is_invariant_under_completion_order() {
    let build = || {
        let mut wf = Workflow::new("order-invariance");
        let src = wf.add_source("images");
        let stage = wf.add_service(
            "stage",
            &["floating_image", "reference_image", "scale"],
            &["crest_reference", "crest_floating"],
            ServiceBinding::descriptor(crest_lines_example(), ServiceProfile::new(30.0)),
        );
        let sink = wf.add_sink("out");
        wf.connect(src, "out", stage, "floating_image").unwrap();
        wf.connect(src, "out", stage, "reference_image").unwrap();
        wf.connect(src, "out", stage, "scale").unwrap();
        wf.connect(stage, "crest_reference", sink, "in").unwrap();
        wf
    };
    let inputs = || {
        InputData::new().set(
            "images",
            (0..8)
                .map(|i| DataValue::File {
                    gfn: format!("gfn://in/{i}"),
                    bytes: 1024,
                })
                .collect(),
        )
    };
    let config = EnactorConfig::sp_dp().with_seed(11);
    let mut store = DataStore::in_memory(StoreConfig::default());

    // Cold on the stochastic grid: completions arrive out of order.
    let wf = build();
    let mut egee = SimBackend::new(GridConfig::egee_2006(), 11);
    let cold = Enactment::new(&wf, &inputs(), config)
        .store(Some(&mut store))
        .run(&mut egee)
        .unwrap();
    assert_eq!(cold.jobs_submitted, 8);
    assert_eq!(store.stats().misses, 8);

    // Warm on the ideal grid (strictly in-order) and warm on EGEE with
    // a different seed (a different out-of-order interleaving): both
    // must hit on every invocation.
    let mut ideal = SimBackend::new(GridConfig::ideal(), 11);
    let warm = Enactment::new(&wf, &inputs(), config)
        .store(Some(&mut store))
        .run(&mut ideal)
        .unwrap();
    assert_eq!(warm.jobs_submitted, 0, "ideal-grid warm run must all hit");
    let mut egee2 = SimBackend::new(GridConfig::egee_2006(), 999);
    let warm2 = Enactment::new(&wf, &inputs(), config)
        .store(Some(&mut store))
        .run(&mut egee2)
        .unwrap();
    assert_eq!(warm2.jobs_submitted, 0, "reordered warm run must all hit");
    assert_eq!(store.stats().hits, 16);
}
