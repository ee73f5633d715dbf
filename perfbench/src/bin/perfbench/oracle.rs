//! Seeded inputs and the byte oracle.
//!
//! Every object's content is a pure function of `(seed, name, version)`,
//! generated in 8-byte counter-mode blocks so any byte range can be
//! produced — and checked — without holding the whole object. A GET's
//! stream is compared byte for byte against the oracle as it arrives.

/// splitmix64 finalizer: the one mixing function behind every seeded
/// value in the benchmark.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A small seeded generator (splitmix64 stream).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(mix(seed ^ 0x005e_ed0f_be4c))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.0)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`; `n` must be nonzero.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Exponential inter-arrival gap (seconds) of a Poisson process at
    /// `rate` events per second.
    pub fn exp_gap(&mut self, rate: f64) -> f64 {
        -(1.0 - self.unit()).ln() / rate
    }
}

/// The content key of one version of one object.
pub fn content_key(seed: u64, name: &str, version: u64) -> u64 {
    // FNV-1a over the name, folded with the seed and version.
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    mix(h ^ mix(seed) ^ mix(version.wrapping_add(0x7e57)))
}

/// Writes the oracle bytes `[offset, offset + out.len())` of the object
/// with content key `key` into `out`.
pub fn fill(key: u64, offset: u64, out: &mut [u8]) {
    let mut pos = offset;
    let mut i = 0;
    while i < out.len() {
        let block = mix(key ^ (pos / 8).wrapping_mul(0xd6e8_feb8_6659_fd93)).to_le_bytes();
        let within = (pos % 8) as usize;
        let take = (8 - within).min(out.len() - i);
        out[i..i + take].copy_from_slice(&block[within..within + take]);
        i += take;
        pos += take as u64;
    }
}

/// The whole content of an object of `len` bytes.
pub fn content(key: u64, len: usize) -> Vec<u8> {
    let mut out = vec![0u8; len];
    fill(key, 0, &mut out);
    out
}

/// Streaming checker: feed the received pieces in order, then ask
/// whether exactly the expected bytes arrived.
#[derive(Debug, Clone)]
pub struct Verifier {
    key: u64,
    len: u64,
    received: u64,
    wrong: bool,
    scratch: Vec<u8>,
}

impl Verifier {
    pub fn new(key: u64, len: u64) -> Verifier {
        Verifier {
            key,
            len,
            received: 0,
            wrong: false,
            scratch: Vec::new(),
        }
    }

    pub fn feed(&mut self, piece: &[u8]) {
        if self.received + piece.len() as u64 > self.len {
            self.wrong = true;
        } else if !self.wrong {
            self.scratch.resize(piece.len(), 0);
            fill(self.key, self.received, &mut self.scratch);
            if self.scratch != piece {
                self.wrong = true;
            }
        }
        self.received += piece.len() as u64;
    }

    /// Bytes received so far.
    pub fn received(&self) -> u64 {
        self.received
    }

    /// True when every expected byte arrived, and nothing else.
    pub fn is_exact(&self) -> bool {
        !self.wrong && self.received == self.len
    }
}

/// Zipfian popularity over `n` ranks with exponent `s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    probs: Vec<f64>,
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let weights: Vec<f64> = (1..=n).map(|r| 1.0 / (r as f64).powf(s)).collect();
        let total: f64 = weights.iter().sum();
        let probs: Vec<f64> = weights.iter().map(|w| w / total).collect();
        let mut acc = 0.0;
        let cdf = probs
            .iter()
            .map(|p| {
                acc += p;
                acc
            })
            .collect();
        Zipf { probs, cdf }
    }

    /// Probability of rank `i` (0-based).
    pub fn probs(&self) -> &[f64] {
        &self.probs
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Picks which objects to wound so that the wounded objects draw
/// `target` of all reads (not `target` of all objects): objects are
/// visited in a seeded random order and taken while their read
/// probability still fits under the target. Returns the chosen indices
/// (sorted) and the read share they carry.
pub fn wound_by_read_share(probs: &[f64], target: f64, rng: &mut Rng) -> (Vec<usize>, f64) {
    let mut order: Vec<usize> = (0..probs.len()).collect();
    for i in (1..order.len()).rev() {
        let j = rng.below(i + 1);
        order.swap(i, j);
    }
    let mut chosen = Vec::new();
    let mut share = 0.0;
    for i in order {
        if share + probs[i] <= target + 1e-12 {
            share += probs[i];
            chosen.push(i);
        }
    }
    chosen.sort_unstable();
    (chosen, share)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn content_is_a_function_of_seed_name_and_version() {
        let a = content(content_key(7, "obj-1", 0), 1000);
        assert_eq!(a, content(content_key(7, "obj-1", 0), 1000));
        assert_ne!(a, content(content_key(8, "obj-1", 0), 1000));
        assert_ne!(a, content(content_key(7, "obj-2", 0), 1000));
        assert_ne!(a, content(content_key(7, "obj-1", 1), 1000));
    }

    #[test]
    fn any_range_matches_the_whole() {
        let key = content_key(1, "x", 3);
        let whole = content(key, 517);
        for (off, len) in [(0, 517), (1, 7), (5, 64), (8, 8), (500, 17), (513, 4)] {
            let mut part = vec![0u8; len];
            fill(key, off as u64, &mut part);
            assert_eq!(part, whole[off..off + len], "range {off}+{len}");
        }
    }

    #[test]
    fn verifier_accepts_exact_streams_in_any_split() {
        let key = content_key(3, "v", 0);
        let whole = content(key, 1000);
        for split in [1, 3, 8, 333, 1000] {
            let mut v = Verifier::new(key, 1000);
            for piece in whole.chunks(split) {
                v.feed(piece);
            }
            assert!(v.is_exact(), "split {split}");
            assert_eq!(v.received(), 1000);
        }
    }

    #[test]
    fn verifier_rejects_a_flipped_byte_a_short_and_a_long_stream() {
        let key = content_key(3, "v", 0);
        let mut whole = content(key, 100);
        let mut short = Verifier::new(key, 100);
        short.feed(&whole[..99]);
        assert!(!short.is_exact());
        let mut long = Verifier::new(key, 99);
        long.feed(&whole);
        assert!(!long.is_exact());
        whole[42] ^= 1;
        let mut flipped = Verifier::new(key, 100);
        flipped.feed(&whole);
        assert!(!flipped.is_exact());
    }

    #[test]
    fn wounds_carry_the_target_read_share_not_the_object_share() {
        let zipf = Zipf::new(64, 1.0);
        let mut rng = Rng::new(11);
        let (chosen, share) = wound_by_read_share(zipf.probs(), 0.2, &mut rng);
        let sum: f64 = chosen.iter().map(|&i| zipf.probs()[i]).sum();
        assert!((sum - share).abs() < 1e-9);
        assert!(share <= 0.2 + 1e-12 && share > 0.18, "share {share}");
        // The top rank alone draws ~21% of reads, so it cannot be taken.
        assert!(!chosen.contains(&0));
    }

    #[test]
    fn sampled_read_share_matches_the_wound_share() {
        let zipf = Zipf::new(64, 1.0);
        let mut rng = Rng::new(5);
        let (chosen, share) = wound_by_read_share(zipf.probs(), 0.2, &mut rng);
        let draws = 200_000;
        let hits = (0..draws)
            .filter(|_| chosen.binary_search(&zipf.sample(&mut rng)).is_ok())
            .count();
        let measured = hits as f64 / draws as f64;
        assert!((measured - share).abs() < 0.01, "{measured} vs {share}");
    }
}
