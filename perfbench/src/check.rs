//! Output checks. They count wrong answers instead of panicking, so a
//! run that finds one still completes and reports it.

use std::collections::HashMap;

use crate::gen::{payload, stamp_of};

/// What an 8-key group read returned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GroupRead {
    /// Every key carries the same writer stamp: one whole `MPUT`.
    Whole(u64),
    /// The keys carry different stamps: the read saw part of one `MPUT`
    /// and part of another.
    Torn,
    /// A key is missing, or holds a value no writer stored.
    Corrupt,
}

/// Classifies the values a group read returned for `keys`.
pub fn check_group(keys: &[u64], values: &[Option<Vec<u8>>]) -> GroupRead {
    if keys.len() != values.len() || keys.is_empty() {
        return GroupRead::Corrupt;
    }
    let mut stamps = Vec::with_capacity(keys.len());
    for (&key, value) in keys.iter().zip(values) {
        let Some(value) = value else {
            return GroupRead::Corrupt;
        };
        match stamp_of(value) {
            Some(stamp) if *value == payload(key, stamp) => stamps.push(stamp),
            _ => return GroupRead::Corrupt,
        }
    }
    if stamps.iter().all(|&s| s == stamps[0]) {
        GroupRead::Whole(stamps[0])
    } else {
        GroupRead::Torn
    }
}

/// The acknowledged writes of a run, per group: what a later read of
/// that group must return.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Last acknowledged `(commit seq, stamp)` per group; groups never
    /// written hold their initial load (stamp 0).
    acked: HashMap<u64, (u64, u64)>,
    /// Stamps whose write got no clear answer (server error or transport
    /// failure): the write may or may not have committed.
    unsure: HashMap<u64, Vec<u64>>,
}

impl Ledger {
    /// Records an acknowledged write of `stamp` to group `g`, committed
    /// at `seq`. The latest commit wins.
    pub fn ack(&mut self, g: u64, seq: u64, stamp: u64) {
        let e = self.acked.entry(g).or_insert((0, 0));
        if seq >= e.0 {
            *e = (seq, stamp);
        }
    }

    /// Records a write of `stamp` to `g` whose outcome is unknown.
    pub fn unsure(&mut self, g: u64, stamp: u64) {
        self.unsure.entry(g).or_default().push(stamp);
    }

    /// Folds another ledger in (writes from another thread).
    pub fn merge(&mut self, other: Ledger) {
        for (g, (seq, stamp)) in other.acked {
            self.ack(g, seq, stamp);
        }
        for (g, stamps) in other.unsure {
            self.unsure.entry(g).or_default().extend(stamps);
        }
    }

    /// Groups with at least one acknowledged write, sorted.
    pub fn groups(&self) -> Vec<u64> {
        let mut gs: Vec<u64> = self.acked.keys().copied().collect();
        gs.sort_unstable();
        gs
    }

    /// Whether `read` of group `g` shows its last acknowledged write (or
    /// a write whose outcome was unknown).
    pub fn holds(&self, g: u64, read: GroupRead) -> bool {
        let want = self.acked.get(&g).map_or(0, |&(_, s)| s);
        match read {
            GroupRead::Whole(s) if s == want => true,
            GroupRead::Whole(s) => self.unsure.get(&g).is_some_and(|u| u.contains(&s)),
            GroupRead::Torn | GroupRead::Corrupt => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::group_keys;

    fn read(keys: &[u64], stamps: &[u64]) -> Vec<Option<Vec<u8>>> {
        keys.iter()
            .zip(stamps)
            .map(|(&k, &s)| Some(payload(k, s)))
            .collect()
    }

    #[test]
    fn counts_a_hand_built_torn_mget() {
        let keys = group_keys(3);
        let whole = read(&keys, &[5; 8]);
        assert_eq!(check_group(&keys, &whole), GroupRead::Whole(5));
        // The first half of the group shows MPUT 6, the rest MPUT 5.
        let torn = read(&keys, &[6, 6, 6, 6, 5, 5, 5, 5]);
        assert_eq!(check_group(&keys, &torn), GroupRead::Torn);
        let results = [whole.clone(), torn.clone(), whole, torn];
        let torn_count = results
            .iter()
            .filter(|r| check_group(&keys, r) == GroupRead::Torn)
            .count();
        assert_eq!(torn_count, 2);
    }

    #[test]
    fn missing_or_foreign_values_are_corrupt() {
        let keys = group_keys(0);
        let mut vals = read(&keys, &[1; 8]);
        vals[2] = None;
        assert_eq!(check_group(&keys, &vals), GroupRead::Corrupt);
        let mut vals = read(&keys, &[1; 8]);
        vals[7] = Some(payload(keys[6], 1));
        assert_eq!(check_group(&keys, &vals), GroupRead::Corrupt);
    }

    #[test]
    fn ledger_wants_the_latest_ack() {
        let mut a = Ledger::default();
        a.ack(1, 10, 100);
        let mut b = Ledger::default();
        b.ack(1, 12, 200);
        b.unsure(1, 300);
        a.merge(b);
        assert!(a.holds(1, GroupRead::Whole(200)));
        assert!(a.holds(1, GroupRead::Whole(300)));
        assert!(!a.holds(1, GroupRead::Whole(100)));
        assert!(a.holds(9, GroupRead::Whole(0)));
        assert!(!a.holds(1, GroupRead::Torn));
    }
}
