//! A bounded ring of records: the one store behind the machine's protocol
//! trace and its causal span log.
//!
//! Capacity 0 switches the ring off (`push` is a no-op, so a run without
//! capture pays nothing). A full ring evicts its *oldest* record, so the
//! newest records always survive wraparound.

use std::collections::VecDeque;

/// A ring retaining at most `capacity` records, oldest evicted first.
#[derive(Debug, Clone)]
pub struct Ring<T> {
    capacity: usize,
    records: VecDeque<T>,
}

impl<T> Ring<T> {
    /// Creates a ring holding up to `capacity` records (`0` = off).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            records: VecDeque::with_capacity(capacity.min(4096)),
        }
    }

    /// Is the ring recording at all?
    pub fn enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Records `record`, evicting the oldest one when full (no-op when
    /// off).
    pub fn push(&mut self, record: T) {
        if self.capacity == 0 {
            return;
        }
        if self.records.len() == self.capacity {
            self.records.pop_front();
        }
        self.records.push_back(record);
    }

    /// The retained records, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.records.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_zero_records_nothing() {
        let mut ring = Ring::new(0);
        ring.push(1u64);
        assert!(!ring.enabled());
        assert_eq!(ring.iter().count(), 0);
    }
}
