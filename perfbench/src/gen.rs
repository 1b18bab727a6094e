//! Seeded input generation. Every random choice of a run comes from
//! [`stream`], keyed by the run's `--seed` and a fixed label per use, so
//! the same seed always yields the same keys, groups and payloads.

use calc_common::rng::SplitMix;

/// Bytes per record value (the paper's §5.1 record size).
pub const RECORD_BYTES: usize = 100;
/// Keys per `MGET`/`MPUT` group.
pub const GROUP: usize = 8;

/// Stream labels: one independent generator per use of randomness.
pub mod label {
    /// `micro-ckpt` caller thread `i` uses `MICRO + i`.
    pub const MICRO: u64 = 0x100;
    /// `wire-rw` writer connection.
    pub const WRITER: u64 = 0x200;
    /// `wire-rw` reader connection.
    pub const READER: u64 = 0x201;
    /// `restart` set-up writer thread `i` uses `HISTORY + i`.
    pub const HISTORY: u64 = 0x300;
    /// Post-restart value sample.
    pub const SAMPLE: u64 = 0x400;
    /// Layer probes.
    pub const PROBE: u64 = 0x500;
}

/// The generator for stream `label` of run `seed`.
pub fn stream(seed: u64, label: u64) -> SplitMix {
    SplitMix::new(seed ^ label.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// YCSB's Zipfian generator (Gray et al., "Quickly generating
/// billion-record synthetic databases"): item 0 is the hottest.
#[derive(Clone, Debug)]
pub struct Zipf {
    items: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipf {
    /// YCSB's default skew.
    pub const THETA: f64 = 0.99;

    /// A generator over `items` items (at least 2) with skew `theta`.
    pub fn new(items: u64, theta: f64) -> Self {
        assert!(items >= 2, "zipf needs at least two items");
        let zeta = |n: u64| (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum::<f64>();
        let zetan = zeta(items);
        let zeta2 = zeta(2);
        Zipf {
            items,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta: (1.0 - (2.0 / items as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan),
        }
    }

    /// Draws the next item in `[0, items)`.
    pub fn next(&self, rng: &mut SplitMix) -> u64 {
        let u = rng.next_f64();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let v = self.items as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha);
        (v as u64).min(self.items - 1)
    }
}

/// The keys of group `g`: `GROUP` consecutive keys.
pub fn group_keys(g: u64) -> [u64; GROUP] {
    std::array::from_fn(|i| g * GROUP as u64 + i as u64)
}

/// The value a writer stores under `key` with writer stamp `stamp`:
/// the stamp, the key, then filler derived from both. Every key of one
/// `MPUT` carries the same stamp, so a reader can tell a whole group
/// apart from a torn one, and a value nobody wrote fails to match.
pub fn payload(key: u64, stamp: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(RECORD_BYTES);
    out.extend_from_slice(&stamp.to_le_bytes());
    out.extend_from_slice(&key.to_le_bytes());
    let mut x = key.rotate_left(29) ^ stamp ^ 0xC0FF_EE00_D15E_A5E5;
    while out.len() < RECORD_BYTES {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let z = (x ^ (x >> 31)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        let n = (RECORD_BYTES - out.len()).min(8);
        out.extend_from_slice(&z.to_le_bytes()[..n]);
    }
    out
}

/// The writer stamp a [`payload`] carries, if `value` is one.
pub fn stamp_of(value: &[u8]) -> Option<u64> {
    Some(u64::from_le_bytes(value.get(..8)?.try_into().ok()?))
}

/// `n` distinct uniform keys below `bound`.
pub fn distinct_keys(rng: &mut SplitMix, bound: u64, n: usize) -> Vec<u64> {
    let mut keys = Vec::with_capacity(n);
    while keys.len() < n {
        let k = rng.next_below(bound);
        if !keys.contains(&k) {
            keys.push(k);
        }
    }
    keys
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let z = Zipf::new(12_500, Zipf::THETA);
        let draw = |seed| {
            let mut rng = stream(seed, label::READER);
            let groups: Vec<u64> = (0..1000).map(|_| z.next(&mut rng)).collect();
            let keys = distinct_keys(&mut rng, 1_000_000, 10);
            let first = payload(keys[0], 7);
            (groups, keys, first)
        };
        assert_eq!(draw(42), draw(42));
        assert_ne!(draw(42), draw(43));
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let z = Zipf::new(1000, Zipf::THETA);
        let mut rng = stream(1, label::WRITER);
        let draws: Vec<u64> = (0..20_000).map(|_| z.next(&mut rng)).collect();
        assert!(draws.iter().all(|&d| d < 1000));
        let hot = draws.iter().filter(|&&d| d < 10).count();
        assert!(hot > draws.len() / 4, "top 1% of items drew only {hot}");
    }

    #[test]
    fn payload_round_trips_its_stamp() {
        let v = payload(12, 99);
        assert_eq!(v.len(), RECORD_BYTES);
        assert_eq!(stamp_of(&v), Some(99));
        assert_ne!(payload(12, 99), payload(13, 99));
    }
}
