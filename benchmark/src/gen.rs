//! Seeded generator of every workload input: input-data documents, the
//! numeric stream and the daemon's protocol script. The same seed gives
//! the same bytes; the product only ever sees what this module wrote.

use crate::json;
use std::fmt::Write as _;

/// xorshift64* — small, seedable, and independent of the product's RNG.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        // SplitMix64 step so that neighbouring seeds start far apart and
        // seed 0 does not stick at the all-zero state.
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Rng((z ^ (z >> 31)) | 1)
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Nominal size of one 256×256×60 16-bit image (paper §4.2).
const IMAGE_BYTES: u64 = 7_864_320;

fn file_item(out: &mut String, gfn: &str, bytes: u64) {
    let _ = writeln!(
        out,
        "    <item type=\"file\" gfn=\"{gfn}\" bytes=\"{bytes}\"/>"
    );
}

/// Input document of the Bronze-Standard workflow: `pairs` image pairs
/// plus the method file. File names carry seeded study and scan ids.
pub fn bronze_inputs_xml(seed: u64, pairs: usize) -> String {
    let mut rng = Rng::new(seed);
    let study = rng.below(1 << 24);
    let scans: Vec<u64> = (0..pairs).map(|_| rng.below(1 << 32)).collect();
    let mut out = String::from("<inputdata>\n");
    for (input, prefix) in [("referenceImage", "ref"), ("floatingImage", "float")] {
        let _ = writeln!(out, "  <input name=\"{input}\">");
        for (j, scan) in scans.iter().enumerate() {
            let gfn = format!("gfn://lacassagne/s{study:06x}/{prefix}{j:05}-{scan:08x}.hdr");
            file_item(&mut out, &gfn, IMAGE_BYTES);
        }
        out.push_str("  </input>\n");
    }
    out.push_str("  <input name=\"methodToTest\">\n");
    file_item(
        &mut out,
        &format!("gfn://lacassagne/s{study:06x}/method.txt"),
        64,
    );
    out.push_str("  </input>\n</inputdata>\n");
    out
}

/// Input document of the bronze-chain workflow: `images` images.
pub fn chain_inputs_xml(seed: u64, images: usize) -> String {
    let mut rng = Rng::new(seed);
    let study = rng.below(1 << 24);
    let mut out = String::from("<inputdata>\n  <input name=\"images\">\n");
    for j in 0..images {
        let scan = rng.below(1 << 32);
        let gfn = format!("gfn://lacassagne/s{study:06x}/img{j:05}-{scan:08x}.hdr");
        file_item(&mut out, &gfn, IMAGE_BYTES);
    }
    out.push_str("  </input>\n</inputdata>\n");
    out
}

/// The numeric stream: `n` integer-valued items below 2^20, so that
/// `2x + 1` is exact in an `f64`.
pub fn stream_values(seed: u64, n: usize) -> Vec<f64> {
    let mut rng = Rng::new(seed);
    (0..n).map(|_| rng.below(1 << 20) as f64).collect()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineKind {
    Submit,
    Status,
    Metrics,
    Drain,
}

/// One `moteur/daemon/v1` request line of the script.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScriptLine {
    pub kind: LineKind,
    pub text: String,
}

/// Shape of the daemon script (see `daemon_wave` in the README).
#[derive(Debug, Clone, Copy)]
pub struct WaveShape {
    pub submissions: usize,
    pub per_wave: usize,
    pub tenants: usize,
    pub documents: usize,
    pub pairs: usize,
}

const SCHEMA: &str = "moteur/daemon/v1";

/// The daemon script: waves of `per_wave` submits (inline workflow, one
/// of `documents` distinct input documents picked by the seeded RNG,
/// tenants round-robin), then a `status` for each instance of the wave,
/// one `metrics` and one `drain`. Instance ids are the daemon's 1-based
/// submission order.
pub fn daemon_script(seed: u64, workflow_xml: &str, shape: WaveShape) -> Vec<ScriptLine> {
    let mut rng = Rng::new(seed);
    let workflow = json::quote(workflow_xml);
    let documents: Vec<String> = (0..shape.documents)
        .map(|d| {
            json::quote(&bronze_inputs_xml(
                seed.wrapping_add(1 + d as u64),
                shape.pairs,
            ))
        })
        .collect();
    let plain = |kind, op: &str| ScriptLine {
        kind,
        text: format!("{{\"schema\":\"{SCHEMA}\",\"op\":\"{op}\"}}"),
    };
    let mut script = Vec::new();
    let mut submitted = 0;
    while submitted < shape.submissions {
        let wave = shape.per_wave.min(shape.submissions - submitted);
        for j in submitted..submitted + wave {
            let tenant = j % shape.tenants;
            let inputs = &documents[rng.below(shape.documents as u64) as usize];
            script.push(ScriptLine {
                kind: LineKind::Submit,
                text: format!(
                    "{{\"schema\":\"{SCHEMA}\",\"op\":\"submit\",\"tenant\":\"tenant-{tenant}\",\
                     \"workflow\":{workflow},\"inputs\":{inputs},\"config\":\"sp+dp+jg\"}}"
                ),
            });
        }
        for j in submitted..submitted + wave {
            script.push(ScriptLine {
                kind: LineKind::Status,
                text: format!(
                    "{{\"schema\":\"{SCHEMA}\",\"op\":\"status\",\"id\":{}}}",
                    j + 1
                ),
            });
        }
        script.push(plain(LineKind::Metrics, "metrics"));
        script.push(plain(LineKind::Drain, "drain"));
        submitted += wave;
    }
    script
}

#[cfg(test)]
mod tests {
    use super::*;

    const SHAPE: WaveShape = WaveShape {
        submissions: 20,
        per_wave: 8,
        tenants: 4,
        documents: 5,
        pairs: 3,
    };

    #[test]
    fn same_seed_gives_the_same_bytes() {
        assert_eq!(bronze_inputs_xml(7, 40), bronze_inputs_xml(7, 40));
        assert_eq!(chain_inputs_xml(7, 40), chain_inputs_xml(7, 40));
        assert_eq!(stream_values(7, 1000), stream_values(7, 1000));
        assert_eq!(
            daemon_script(7, "<scufl/>", SHAPE),
            daemon_script(7, "<scufl/>", SHAPE)
        );
    }

    #[test]
    fn another_seed_gives_other_bytes_of_the_same_size() {
        let (a, b) = (bronze_inputs_xml(7, 40), bronze_inputs_xml(8, 40));
        assert_ne!(a, b);
        assert_eq!(a.len(), b.len(), "the seed must not change the work");
        let (a, b) = (chain_inputs_xml(7, 40), chain_inputs_xml(8, 40));
        assert_ne!(a, b);
        assert_eq!(a.len(), b.len());
        assert_ne!(stream_values(7, 100), stream_values(8, 100));
        assert_ne!(
            daemon_script(7, "<scufl/>", SHAPE),
            daemon_script(8, "<scufl/>", SHAPE)
        );
    }

    #[test]
    fn script_has_the_documented_shape() {
        let script = daemon_script(1, "<scufl name=\"x\"/>", SHAPE);
        let count = |k| script.iter().filter(|l| l.kind == k).count();
        assert_eq!(count(LineKind::Submit), 20);
        assert_eq!(count(LineKind::Status), 20);
        assert_eq!(count(LineKind::Metrics), 3, "waves of 8, 8 and 4");
        assert_eq!(count(LineKind::Drain), 3);
        assert_eq!(script.last().unwrap().kind, LineKind::Drain);
        // Every line is one JSON object carrying the schema tag, and the
        // embedded documents survive the quoting.
        for line in &script {
            let v = json::Value::parse(&line.text).unwrap();
            assert_eq!(v.get("schema").unwrap().as_str(), Some(SCHEMA));
        }
        let first = json::Value::parse(&script[0].text).unwrap();
        assert_eq!(
            first.get("workflow").unwrap().as_str(),
            Some("<scufl name=\"x\"/>")
        );
        assert!(first
            .get("inputs")
            .unwrap()
            .as_str()
            .unwrap()
            .starts_with("<inputdata>"));
        assert_eq!(first.get("tenant").unwrap().as_str(), Some("tenant-0"));
    }

    #[test]
    fn stream_values_are_small_integers() {
        for x in stream_values(3, 1000) {
            assert!(x >= 0.0 && x < f64::from(1 << 20) && x.fract() == 0.0);
        }
    }
}
