//! Seeded text fuzzing shared by the parser tests of `moteur-xml`,
//! `moteur-scufl` and `moteur-wrapper` (the latter two include this file
//! by `#[path]`): a local splitmix64 generator instead of an external
//! property-testing crate, so the workspace builds and tests offline,
//! and the hostile variants of a valid document that every parser over
//! it must survive.

/// Deterministic splitmix64 — enough randomness for structural fuzzing.
pub struct Gen(pub u64);

impl Gen {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// What a mutation inserts or overwrites with: the markup bytes, a
/// line break of each kind, and the lead byte of a two-byte character
/// and of a non-ASCII space, so a cut can land inside a character.
const ALPHABET: &[u8] = b"<>/=\"'&;#xX+![]-?CDATA \n\r\ta1\xc3\xa9\xe2\x80\xa8";

/// Every prefix of `text` that ends on a `char` boundary, whole text
/// included, then `mutations` seeded variants: each applies one to
/// three byte edits (overwrite, delete, insert, or duplicate a run of up
/// to 40 bytes) and is read back lossily, so it is valid UTF-8 that may
/// hold U+FFFD where an edit split a character.
pub fn hostile_variants(text: &str, seed: u64, mutations: usize) -> Vec<String> {
    let mut out: Vec<String> = (0..=text.len())
        .filter(|&cut| text.is_char_boundary(cut))
        .map(|cut| text[..cut].to_string())
        .collect();
    let mut g = Gen(seed);
    for _ in 0..mutations {
        let mut bytes = text.as_bytes().to_vec();
        for _ in 0..1 + g.below(3) {
            let at = g.below(bytes.len() + 1);
            let byte = ALPHABET[g.below(ALPHABET.len())];
            match g.below(4) {
                0 if at < bytes.len() => bytes[at] = byte,
                1 if at < bytes.len() => {
                    bytes.remove(at);
                }
                2 => bytes.insert(at, byte),
                _ => {
                    let end = (at + g.below(40)).min(bytes.len());
                    let run = bytes[at..end].to_vec();
                    bytes.splice(at..at, run);
                }
            }
        }
        out.push(String::from_utf8_lossy(&bytes).into_owned());
    }
    out
}
