//! Content-addressed keys for the data manager.
//!
//! Identity of a data item is its *provenance*, not its storage
//! location (§3.3/§4.1 of the paper): the history tree names exactly
//! which source items and which processors produced a value, so hashing
//! the canonical value bytes together with the tree's structural digest
//! ([`History::digest`], folded once per node when the node is minted)
//! yields a key that is stable across runs, processes and machines —
//! the [`ProvenanceKey`]. No key renders the tree: XML is the export
//! format of a run's provenance, not an identity. An invocation is then
//! identified by the service it fires, a digest of *what the service
//! is* (its executable descriptor, fixed parameters and output sizing)
//! and the provenance keys of its inputs in port order — the
//! [`InvocationKey`].
//!
//! Hashing is a hand-rolled 64-bit FNV-1a: the workspace is hermetic
//! (no external crates), and collision resistance against adversarial
//! inputs is a non-goal for a memoization cache — a collision costs a
//! wrong reuse in a simulation, not a security boundary.

use crate::service::{GroupedBinding, ServiceProfile};
use crate::token::History;
use crate::value::DataValue;
use moteur_wrapper::ExecutableDescriptor;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental 64-bit FNV-1a hasher over length-prefixed fields.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv1a {
    pub fn new() -> Self {
        Fnv1a(FNV_OFFSET)
    }

    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Length-prefixed, so `("ab","c")` and `("a","bc")` differ.
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write(s.as_bytes());
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Content address of one data item: hash of its canonical value bytes
/// and its history tree's structural digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProvenanceKey(pub u64);

impl ProvenanceKey {
    /// Fixed-width lowercase hex, the on-disk spelling.
    pub fn to_hex(self) -> String {
        format!("{:016x}", self.0)
    }

    pub fn from_hex(s: &str) -> Option<Self> {
        if s.len() != 16 {
            return None;
        }
        u64::from_str_radix(s, 16).ok().map(ProvenanceKey)
    }
}

impl std::fmt::Display for ProvenanceKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "pk:{:016x}", self.0)
    }
}

/// Identity of one service invocation: service name, service digest and
/// input provenance keys in port order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InvocationKey(pub u64);

impl InvocationKey {
    pub fn to_hex(self) -> String {
        format!("{:016x}", self.0)
    }

    pub fn from_hex(s: &str) -> Option<Self> {
        if s.len() != 16 {
            return None;
        }
        u64::from_str_radix(s, 16).ok().map(InvocationKey)
    }
}

impl std::fmt::Display for InvocationKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ik:{:016x}", self.0)
    }
}

/// Hash a value's canonical byte form. Returns `false` for values with
/// no canonical form (opaque in-process handles) — those are
/// uncacheable and the whole key computation aborts.
fn hash_value(h: &mut Fnv1a, value: &DataValue) -> bool {
    match value {
        DataValue::Str(s) => {
            h.write(&[1]);
            h.write_str(s);
            true
        }
        DataValue::Num(n) => {
            h.write(&[2]);
            // Bit pattern, so -0.0/0.0 and NaN payloads stay distinct
            // and no formatting round-trip is involved.
            h.write_u64(n.to_bits());
            true
        }
        DataValue::File { gfn, bytes } => {
            h.write(&[3]);
            h.write_str(gfn);
            h.write_u64(*bytes);
            true
        }
        DataValue::List(items) => {
            h.write(&[4]);
            h.write_u64(items.len() as u64);
            items.iter().all(|v| hash_value(h, v))
        }
        DataValue::Opaque(_) => false,
    }
}

/// Content address of `value` produced with `history`: the value's
/// canonical bytes followed by the tree's structural digest
/// ([`History::digest`], computed when the node was minted), so a key
/// costs one pass over the value and allocates nothing. `None` when the
/// value has no canonical byte form (opaque payloads, or lists
/// containing them).
pub fn provenance_key(value: &DataValue, history: &History) -> Option<ProvenanceKey> {
    let mut h = Fnv1a::new();
    if !hash_value(&mut h, value) {
        return None;
    }
    h.write_u64(history.digest());
    Some(ProvenanceKey(h.finish()))
}

// Only for `benchmark/src/sut.rs`, which still names it; goes when it
// is retargeted at the free function.
#[doc(hidden)]
#[derive(Debug, Default)]
pub struct HistoryXmlCache;

impl HistoryXmlCache {
    pub fn new() -> Self {
        HistoryXmlCache
    }

    /// [`provenance_key`], which no longer needs a cache.
    pub fn provenance_key(
        &mut self,
        value: &DataValue,
        history: &History,
    ) -> Option<ProvenanceKey> {
        provenance_key(value, history)
    }
}

/// Digest of *what a descriptor-bound service is*: the full descriptor
/// XML plus the profile's fixed parameters and output sizing (they
/// change the produced values, so they are part of the identity; the
/// cost model is timing, not content, and is excluded).
pub fn descriptor_digest(descriptor: &ExecutableDescriptor, profile: &ServiceProfile) -> u64 {
    let mut h = Fnv1a::new();
    h.write_str(&descriptor.to_xml().to_pretty_string());
    h.write_u64(profile.fixed_params.len() as u64);
    for (k, v) in &profile.fixed_params {
        h.write_str(k);
        h.write_str(v);
    }
    h.write_u64(profile.output_bytes.len() as u64);
    for (name, bytes) in &profile.output_bytes {
        h.write_str(name);
        h.write_u64(*bytes);
    }
    h.finish()
}

/// Digest of a grouped (JG) binding: the composed descriptor chain.
/// Folds every stage's name, descriptor digest and input wiring plus
/// the exposed-output mapping, so regrouping or rewiring the chain
/// changes the key even when the individual descriptors do not.
pub fn group_digest(group: &GroupedBinding) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u64(group.stages.len() as u64);
    for stage in &group.stages {
        h.write_str(&stage.name);
        h.write_u64(descriptor_digest(&stage.descriptor, &stage.profile));
        h.write_u64(stage.inputs.len() as u64);
        for (slot, source) in &stage.inputs {
            h.write_str(slot);
            match source {
                crate::service::GroupSource::ExternalPort(i) => {
                    h.write(&[1]);
                    h.write_u64(*i as u64);
                }
                crate::service::GroupSource::StageOutput { stage, slot } => {
                    h.write(&[2]);
                    h.write_u64(*stage as u64);
                    h.write_str(slot);
                }
            }
        }
    }
    h.write_u64(group.exposed_outputs.len() as u64);
    for (stage, slot) in &group.exposed_outputs {
        h.write_u64(*stage as u64);
        h.write_str(slot);
    }
    h.finish()
}

/// Key of one invocation: `(service name, service digest, input
/// provenance keys in port order)`.
pub fn invocation_key(service: &str, digest: u64, inputs: &[ProvenanceKey]) -> InvocationKey {
    let mut h = Fnv1a::new();
    h.write_str(service);
    h.write_u64(digest);
    h.write_u64(inputs.len() as u64);
    for k in inputs {
        h.write_u64(k.0);
    }
    InvocationKey(h.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::token::History;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Standard FNV-1a 64-bit test vectors.
        let mut h = Fnv1a::new();
        h.write(b"");
        assert_eq!(h.finish(), 0xcbf2_9ce4_8422_2325);
        let mut h = Fnv1a::new();
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv1a::new();
        h.write(b"foobar");
        assert_eq!(h.finish(), 0x85944171f73967e8);
    }

    #[test]
    fn provenance_key_depends_on_value_and_history() {
        let h1 = History::source("s", 0);
        let h2 = History::source("s", 1);
        let v = DataValue::from("img");
        let a = provenance_key(&v, &h1).unwrap();
        assert_eq!(a, provenance_key(&v, &h1).unwrap(), "deterministic");
        assert_ne!(a, provenance_key(&v, &h2).unwrap(), "history matters");
        assert_ne!(
            a,
            provenance_key(&DataValue::from("other"), &h1).unwrap(),
            "value matters"
        );
    }

    #[test]
    fn opaque_values_are_uncacheable() {
        let h = History::source("s", 0);
        assert!(provenance_key(&DataValue::opaque(42u32), &h).is_none());
        let list = DataValue::List(vec![DataValue::from("x"), DataValue::opaque(1u8)]);
        assert!(provenance_key(&list, &h).is_none());
    }

    #[test]
    fn numeric_keys_use_bit_patterns() {
        let h = History::source("s", 0);
        let a = provenance_key(&DataValue::Num(0.0), &h).unwrap();
        let b = provenance_key(&DataValue::Num(-0.0), &h).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn invocation_key_orders_inputs() {
        let k1 = ProvenanceKey(1);
        let k2 = ProvenanceKey(2);
        assert_ne!(
            invocation_key("svc", 9, &[k1, k2]),
            invocation_key("svc", 9, &[k2, k1]),
            "port order is part of the identity"
        );
        assert_ne!(
            invocation_key("svc", 9, &[k1]),
            invocation_key("svc", 8, &[k1]),
            "descriptor digest is part of the identity"
        );
    }

    #[test]
    fn provenance_keys_match_pinned_vectors() {
        // A change to the value encoding or to the history digest moves
        // these, and every key a persisted store holds with them: bump
        // `STORE_SCHEMA` in the same change.
        let src = History::source("acquisition", 3);
        let derived = History::derived("crestLines", vec![src.clone(), History::source("ref", 0)]);
        let file = DataValue::File {
            gfn: "lfn://x".into(),
            bytes: 7_864_320,
        };
        let list = DataValue::List(vec![DataValue::from("a"), DataValue::Num(-0.0)]);
        for (value, history, pinned) in [
            (DataValue::from("img"), &src, 0x166e_5ab8_0540_06a3),
            (DataValue::Num(1.5), &src, 0x9bcc_17ff_7120_2ba1),
            (file, &derived, 0x35b3_b41d_64b3_707e),
            (list, &derived, 0x1aaf_2036_8848_759b),
        ] {
            let key = provenance_key(&value, history).unwrap();
            assert_eq!(key.0, pinned, "{value:?} over {history:?}: {key}");
        }
    }

    #[test]
    fn the_history_xml_cache_shim_forwards_to_provenance_key() {
        let mut shim = HistoryXmlCache::new();
        let h = History::derived("p", vec![History::source("s", 0)]);
        for value in [DataValue::from("v"), DataValue::opaque(1u8)] {
            assert_eq!(shim.provenance_key(&value, &h), provenance_key(&value, &h));
        }
    }

    #[test]
    fn hex_round_trips() {
        let k = ProvenanceKey(0x00ab_cdef_0123_4567);
        assert_eq!(ProvenanceKey::from_hex(&k.to_hex()), Some(k));
        assert!(ProvenanceKey::from_hex("xyz").is_none());
        let i = InvocationKey(7);
        assert_eq!(InvocationKey::from_hex(&i.to_hex()), Some(i));
    }
}
