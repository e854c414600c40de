//! Reassembly of a message from its pushed and pulled fragments.

use bytes::Bytes;

/// Merges `[start, end)` into a sorted, disjoint interval list in place,
/// returning the number of *newly covered* positions.
///
/// This is the coverage-tracking core shared by [`Assembly`] (engine-owned
/// reassembly buffers) and [`RecvBuf`](crate::ops::RecvBuf) (caller-owned
/// destination buffers).  The list stays sorted and disjoint, so the new
/// interval overlaps (or touches) at most one contiguous run of existing
/// intervals and no temporary list is allocated — this runs once per
/// arriving fragment on the hot path.
pub(crate) fn merge_interval(cov: &mut Vec<(usize, usize)>, start: usize, end: usize) -> usize {
    let i = cov.partition_point(|&(_, e)| e < start);
    if i == cov.len() || cov[i].0 > end {
        // No overlap and no adjacency: plain insertion.
        cov.insert(i, (start, end));
        return end - start;
    }
    let mut existing = 0;
    let mut new_start = start;
    let mut new_end = end;
    let mut j = i;
    while j < cov.len() && cov[j].0 <= end {
        existing += cov[j].1 - cov[j].0;
        new_start = new_start.min(cov[j].0);
        new_end = new_end.max(cov[j].1);
        j += 1;
    }
    cov[i] = (new_start, new_end);
    cov.drain(i + 1..j);
    (new_end - new_start) - existing
}

/// Reassembles one incoming message from fragments arriving at arbitrary
/// offsets (first push, second push, pulled packets).
///
/// Duplicate and overlapping fragments are tolerated — only bytes not already
/// covered count towards completion — which keeps the engine robust if a
/// retransmitted packet slips past the go-back-N receiver.
///
/// A pooled assembly recycles its deliveries: it keeps a handle on the last
/// message it handed out, and once the caller has dropped every clone of it
/// the next delivery reuses that allocation instead of making a new one.
#[derive(Debug, Clone)]
pub struct Assembly {
    data: Vec<u8>,
    /// Sorted, disjoint list of covered `[start, end)` intervals.
    covered: Vec<(usize, usize)>,
    received: usize,
    /// The last message delivered by [`Assembly::take_bytes`], kept for
    /// reuse; only ever written to once no other handle shares it.
    delivered: Bytes,
}

/// Largest message whose storage an assembly keeps for reuse: bigger ones
/// leave with the caller, so a pooled shell never pins more than twice
/// this (its reassembly buffer plus its last delivery).
const RECYCLE_MAX: usize = 64 * 1024;

impl Assembly {
    /// Creates an assembly buffer for a message of `total_len` bytes.
    pub fn new(total_len: usize) -> Self {
        Assembly {
            data: vec![0u8; total_len],
            covered: Vec::new(),
            received: 0,
            delivered: Bytes::new(),
        }
    }

    /// Re-initialises the buffer for a new message of `total_len` bytes,
    /// reusing existing capacity.  Returns `true` when the backing storage
    /// had to grow (i.e. the call allocated).
    pub fn reset(&mut self, total_len: usize) -> bool {
        let grew = self.data.capacity() < total_len;
        self.data.clear();
        self.data.resize(total_len, 0);
        self.covered.clear();
        self.received = 0;
        grew
    }

    /// Total length of the message being assembled.
    #[inline]
    pub fn total_len(&self) -> usize {
        self.data.len()
    }

    /// Number of distinct bytes received so far.
    #[inline]
    pub fn received(&self) -> usize {
        self.received
    }

    /// Number of bytes still missing.
    #[inline]
    pub fn missing(&self) -> usize {
        self.data.len() - self.received
    }

    /// `true` once every byte of the message has been received.
    #[inline]
    pub fn is_complete(&self) -> bool {
        self.received == self.data.len()
    }

    /// Offset of the first byte not yet received, or `total_len` if complete.
    pub fn first_gap(&self) -> usize {
        let mut cursor = 0;
        for &(start, end) in &self.covered {
            if start > cursor {
                return cursor;
            }
            cursor = cursor.max(end);
        }
        cursor
    }

    /// Writes a fragment at `offset`, returning the number of *newly covered*
    /// bytes.  Fragments beyond the end of the message are truncated.
    pub fn write_at(&mut self, offset: usize, fragment: &[u8]) -> usize {
        if offset >= self.data.len() || fragment.is_empty() {
            return 0;
        }
        let len = fragment.len().min(self.data.len() - offset);
        self.data[offset..offset + len].copy_from_slice(&fragment[..len]);
        let newly = merge_interval(&mut self.covered, offset, offset + len);
        self.received += newly;
        newly
    }

    /// The sorted, disjoint covered `[start, end)` intervals recorded so far
    /// (used when draining a partially assembled message into a caller-owned
    /// buffer: only genuinely received bytes may be marked covered there).
    pub(crate) fn covered_intervals(&self) -> &[(usize, usize)] {
        &self.covered
    }

    /// Consumes the assembly and returns the message bytes.  The caller is
    /// expected to check [`is_complete`](Assembly::is_complete) first; missing
    /// regions are zero-filled.
    pub fn into_bytes(self) -> Bytes {
        Bytes::from(self.data)
    }

    /// Extracts the message bytes, leaving a shell that can be returned to
    /// an assembly pool (the interval list keeps its capacity).
    ///
    /// When the caller has dropped the previous delivery, the message moves
    /// into that delivery's allocation and the shell keeps the previous
    /// storage, so a steady receive loop allocates nothing.  A delivery
    /// still held elsewhere is never written to: the message then leaves
    /// in its own storage, as it does when larger than 64 KiB.
    pub fn take_bytes(&mut self) -> Bytes {
        self.covered.clear();
        self.received = 0;
        let message = std::mem::take(&mut self.data);
        if message.capacity() > RECYCLE_MAX {
            self.delivered = Bytes::new();
            return Bytes::from(message);
        }
        match self.delivered.try_replace_unique(message) {
            Ok(previous) => self.data = previous,
            Err(message) => self.delivered = Bytes::from(message),
        }
        self.delivered.clone()
    }

    /// A read-only view of the (possibly still incomplete) message bytes.
    pub fn as_slice(&self) -> &[u8] {
        &self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_order_assembly() {
        let mut a = Assembly::new(100);
        assert_eq!(a.write_at(0, &[1u8; 40]), 40);
        assert!(!a.is_complete());
        assert_eq!(a.first_gap(), 40);
        assert_eq!(a.write_at(40, &[2u8; 60]), 60);
        assert!(a.is_complete());
        let bytes = a.into_bytes();
        assert_eq!(&bytes[..40], &[1u8; 40][..]);
        assert_eq!(&bytes[40..], &[2u8; 60][..]);
    }

    #[test]
    fn out_of_order_assembly() {
        let mut a = Assembly::new(10);
        assert_eq!(a.write_at(6, &[6, 7, 8, 9]), 4);
        assert_eq!(a.first_gap(), 0);
        assert_eq!(a.write_at(0, &[0, 1, 2, 3, 4, 5]), 6);
        assert!(a.is_complete());
        assert_eq!(a.as_slice(), &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9]);
    }

    #[test]
    fn duplicates_do_not_double_count() {
        let mut a = Assembly::new(100);
        assert_eq!(a.write_at(0, &[1u8; 50]), 50);
        assert_eq!(a.write_at(0, &[1u8; 50]), 0);
        assert_eq!(a.write_at(25, &[2u8; 50]), 25);
        assert_eq!(a.received(), 75);
        assert_eq!(a.missing(), 25);
    }

    #[test]
    fn fragment_past_end_is_truncated() {
        let mut a = Assembly::new(10);
        assert_eq!(a.write_at(5, &[9u8; 100]), 5);
        assert!(!a.is_complete());
        assert_eq!(a.write_at(20, &[9u8; 10]), 0);
    }

    #[test]
    fn unshared_delivery_storage_is_reused() {
        let mut a = Assembly::new(64);
        let deliver = |a: &mut Assembly, byte: u8| {
            a.write_at(0, &[byte; 64]);
            let bytes = a.take_bytes();
            assert_eq!(&bytes[..], &[byte; 64][..]);
            bytes.as_ptr()
        };
        // The first two deliveries each allocate: one for the message, one
        // to give the shell reassembly storage of its own again.
        deliver(&mut a, 1);
        assert!(a.reset(64));
        let second = deliver(&mut a, 2);
        // From then on the two buffers alternate, with no allocation.
        assert!(!a.reset(64));
        let third = deliver(&mut a, 3);
        assert!(!a.reset(64));
        assert_eq!(deliver(&mut a, 4), second);
        assert!(!a.reset(64));
        assert_eq!(deliver(&mut a, 5), third);
    }

    #[test]
    fn held_delivery_is_never_overwritten() {
        let mut a = Assembly::new(64);
        a.write_at(0, &[7u8; 64]);
        let held = a.take_bytes();
        for round in 0..10u8 {
            a.reset(64);
            a.write_at(0, &[round; 64]);
            let next = a.take_bytes();
            assert_eq!(&next[..], &[round; 64][..]);
        }
        assert_eq!(&held[..], &[7u8; 64][..]);
    }

    #[test]
    fn large_deliveries_are_not_kept() {
        let mut a = Assembly::new(RECYCLE_MAX + 1);
        a.write_at(0, &vec![3u8; RECYCLE_MAX + 1]);
        let big = a.take_bytes();
        assert_eq!(big.len(), RECYCLE_MAX + 1);
        assert!(a.delivered.is_empty());
    }

    #[test]
    fn zero_length_message_is_immediately_complete() {
        let a = Assembly::new(0);
        assert!(a.is_complete());
        assert_eq!(a.first_gap(), 0);
    }

    #[test]
    fn empty_fragment_is_noop() {
        let mut a = Assembly::new(10);
        assert_eq!(a.write_at(3, &[]), 0);
        assert_eq!(a.received(), 0);
    }

    #[test]
    fn overlapping_middle_fragment() {
        let mut a = Assembly::new(30);
        a.write_at(0, &[1u8; 10]);
        a.write_at(20, &[3u8; 10]);
        // Overlaps both existing intervals.
        assert_eq!(a.write_at(5, &[2u8; 20]), 10);
        assert!(a.is_complete());
    }
}
