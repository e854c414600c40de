//! Seeded inputs.  Everything a workload sends is generated here from
//! `--seed` during set-up, so the timed loop allocates nothing and the
//! program under test sees bytes, never the seed.

use bytes::Bytes;

/// Length of the stamp that opens every payload.
pub const STAMP_LEN: usize = 16;

/// splitmix64: tiny, seedable, and good enough to fill buffers.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// A pool of `count` payloads of `len` bytes.  Payload `k` opens with a
/// 16-byte stamp — `k` and a seed-derived check word — followed by seeded
/// noise, so a completion can be tied to the operation that caused it in
/// O(1) and audited byte for byte when asked.
pub struct Pool {
    payloads: Vec<Bytes>,
}

impl Pool {
    /// `stream` separates the pools of one workload (requests, replies).
    pub fn new(seed: u64, stream: u64, count: usize, len: usize) -> Pool {
        assert!(len >= STAMP_LEN, "payloads carry a {STAMP_LEN}-byte stamp");
        assert!(count > 0, "empty payload pool");
        let mut rng = Rng::new(seed ^ stream.wrapping_mul(0xA24B_AED4_963E_E407));
        let payloads = (0..count)
            .map(|k| {
                let mut data = Vec::with_capacity(len);
                data.extend_from_slice(&(k as u64).to_le_bytes());
                data.extend_from_slice(&rng.next_u64().to_le_bytes());
                while data.len() < len {
                    let word = rng.next_u64().to_le_bytes();
                    let take = word.len().min(len - data.len());
                    data.extend_from_slice(&word[..take]);
                }
                Bytes::from(data)
            })
            .collect();
        Pool { payloads }
    }

    /// The payload operation `seq` sends (the pool is cycled).
    #[inline]
    pub fn for_seq(&self, seq: u64) -> &Bytes {
        &self.payloads[(seq % self.payloads.len() as u64) as usize]
    }
}

/// How thoroughly a received payload is compared with the expected one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Check {
    /// Length and stamp: the O(1) check of the timed loop.
    Stamp,
    /// Every byte: the audits before and after the timed phase.
    Full,
}

/// `true` when `got` is the payload `want` under `check`.
#[inline]
pub fn payload_matches(got: &[u8], want: &[u8], check: Check) -> bool {
    if got.len() != want.len() {
        return false;
    }
    match check {
        Check::Stamp => got[..STAMP_LEN] == want[..STAMP_LEN],
        Check::Full => got == want,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_pool_other_seed_other_pool() {
        let a = Pool::new(7, 1, 8, 64);
        let b = Pool::new(7, 1, 8, 64);
        let c = Pool::new(8, 1, 8, 64);
        let other_stream = Pool::new(7, 2, 8, 64);
        for k in 0..8 {
            assert_eq!(a.for_seq(k), b.for_seq(k));
            assert_ne!(a.for_seq(k), c.for_seq(k));
            assert_ne!(a.for_seq(k), other_stream.for_seq(k));
            assert_eq!(a.for_seq(k).len(), 64);
            assert_eq!(&a.for_seq(k)[..8], &k.to_le_bytes());
        }
        assert_eq!(a.for_seq(8), a.for_seq(0), "the pool is cycled");
    }

    #[test]
    fn odd_lengths_are_filled_exactly() {
        let p = Pool::new(1, 1, 2, 16 + 5);
        assert_eq!(p.for_seq(0).len(), 21);
        assert_eq!(p.for_seq(1).len(), 21);
    }

    #[test]
    fn stamp_check_sees_the_stamp_full_check_sees_every_byte() {
        let p = Pool::new(3, 1, 2, 64);
        let want = p.for_seq(0);
        let mut tail_flipped = want.to_vec();
        tail_flipped[40] ^= 1;
        assert!(payload_matches(&tail_flipped, want, Check::Stamp));
        assert!(!payload_matches(&tail_flipped, want, Check::Full));
        let mut stamp_flipped = want.to_vec();
        stamp_flipped[9] ^= 1;
        assert!(!payload_matches(&stamp_flipped, want, Check::Stamp));
        assert!(!payload_matches(p.for_seq(1), want, Check::Stamp));
        assert!(!payload_matches(&want[..32], want, Check::Stamp));
    }
}
