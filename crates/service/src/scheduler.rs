//! Fair-share slot scheduling across live studies: stride scheduling.
//!
//! Each registered study holds a *pass* value; every time the service
//! has an idle worker slot it grants it to the eligible study with the
//! lowest pass (ties to the lowest id, for determinism) and advances
//! that study's pass by `STRIDE_ONE / weight`. Over any window in which
//! a set of studies stays eligible, study `i` therefore receives slots
//! proportional to `w_i / Σw`, with an absolute error bounded by the
//! number of competitors — the classic stride-scheduling guarantee that
//! also gives starvation-freedom: a weight-1 tenant next to a
//! weight-1000 tenant still gets one slot roughly every 1001 grants,
//! never zero.
//!
//! Two policy choices beyond textbook stride:
//!
//! - **Zero weight parks a study.** `weight == 0` entries are never
//!   eligible, whatever their pass. Stopped studies are unregistered
//!   outright; zero weight is for tenants that want to keep a study's
//!   state warm without consuming fleet share.
//! - **Late joiners start at the current minimum pass**, not at zero.
//!   Starting at zero would let a new study monopolize the fleet until
//!   it "caught up" with incumbents' accumulated pass; starting at the
//!   minimum makes it compete fairly from its first slot.
//!
//! Eligibility is a caller-supplied predicate (demand, quota, lifecycle
//! state all live in the service); the scheduler only owns weights and
//! passes. A study picked by [`FairShare::pick`] is charged
//! immediately — even if its method then declines to produce a job this
//! round (a synchronous barrier). The overcharge is at most one stride
//! per barrier round and keeps the scheduler oblivious to method
//! internals.
//!
//! `FairShare::plan` runs the same picks on a copy, so a fill round can
//! know each study's grant count before it asks any method for a job.

use std::collections::BTreeMap;

/// Pass-space units per slot for a weight-1 study. `u128` pass
/// arithmetic means a weight-1 tenant needs ~2^96 grants to overflow —
/// never.
const STRIDE_ONE: u128 = 1 << 32;

#[derive(Debug, Clone, PartialEq, Eq)]
struct Entry {
    weight: u64,
    pass: u128,
}

/// Weighted stride scheduler over study ids. See the module docs for
/// the algorithm and its fairness bound.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct FairShare {
    entries: BTreeMap<u64, Entry>,
}

impl FairShare {
    /// An empty scheduler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Minimum pass among schedulable (weight > 0) entries — the join
    /// point for late arrivals.
    fn min_pass(&self) -> u128 {
        self.entries
            .values()
            .filter(|e| e.weight > 0)
            .map(|e| e.pass)
            .min()
            .unwrap_or(0)
    }

    /// Registers (or re-registers) a study. The entry starts at the
    /// current minimum pass so it competes fairly from its first slot
    /// instead of draining a backlog of "owed" grants.
    pub fn register(&mut self, id: u64, weight: u64) {
        let pass = self.min_pass();
        self.entries.insert(id, Entry { weight, pass });
    }

    /// Removes a study (stopped or completed). Unknown ids are a no-op.
    pub fn unregister(&mut self, id: u64) {
        self.entries.remove(&id);
    }

    /// Whether `id` is registered.
    pub fn contains(&self, id: u64) -> bool {
        self.entries.contains_key(&id)
    }

    /// Number of registered studies.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no studies are registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Grants one slot: picks the eligible, schedulable study with the
    /// lowest pass (ties to the lowest id) and charges it one stride.
    /// Returns `None` when no registered study is both schedulable
    /// (weight > 0) and eligible per the caller's predicate.
    pub fn pick(&mut self, mut eligible: impl FnMut(u64) -> bool) -> Option<u64> {
        let id = self
            .entries
            .iter()
            .filter(|(id, e)| e.weight > 0 && eligible(**id))
            .min_by_key(|(id, e)| (e.pass, **id))
            .map(|(id, _)| *id)?;
        let e = self.entries.get_mut(&id).expect("picked id exists");
        e.pass += STRIDE_ONE / u128::from(e.weight);
        Some(id)
    }

    /// Schedulable (weight > 0) study ids, ascending.
    pub(crate) fn ids(&self) -> impl Iterator<Item = u64> + '_ {
        self.entries
            .iter()
            .filter(|(_, e)| e.weight > 0)
            .map(|(&id, _)| id)
    }

    /// The grants up to `slots` picks would make if every grant took one
    /// of the study's `wants` and filled one slot: `(id, grants)` for every
    /// study granted at least once, by id. Picks on a copy, so `self` is
    /// not charged.
    pub(crate) fn plan(
        &self,
        slots: usize,
        mut wants: impl FnMut(u64) -> usize,
    ) -> Vec<(u64, usize)> {
        let mut copy = self.clone();
        let mut left: BTreeMap<u64, usize> = self.ids().map(|id| (id, wants(id))).collect();
        let mut grants: BTreeMap<u64, usize> = BTreeMap::new();
        for _ in 0..slots {
            let Some(id) = copy.pick(|id| left[&id] > 0) else {
                break;
            };
            *left.get_mut(&id).expect("planned ids have wants") -= 1;
            *grants.entry(id).or_insert(0) += 1;
        }
        grants.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// Runs `n` picks with every registered study eligible; returns
    /// grant counts per id.
    fn run(sched: &mut FairShare, n: usize) -> BTreeMap<u64, usize> {
        let mut counts = BTreeMap::new();
        for _ in 0..n {
            if let Some(id) = sched.pick(|_| true) {
                *counts.entry(id).or_insert(0) += 1;
            }
        }
        counts
    }

    #[test]
    fn empty_scheduler_picks_nothing() {
        let mut s = FairShare::new();
        assert_eq!(s.pick(|_| true), None);
    }

    #[test]
    fn ineligible_studies_are_skipped() {
        let mut s = FairShare::new();
        s.register(1, 1);
        s.register(2, 1);
        for _ in 0..10 {
            assert_eq!(s.pick(|id| id == 2), Some(2));
        }
    }

    #[test]
    fn equal_weights_alternate() {
        let mut s = FairShare::new();
        s.register(1, 1);
        s.register(2, 1);
        let counts = run(&mut s, 100);
        assert_eq!(counts[&1], 50);
        assert_eq!(counts[&2], 50);
    }

    #[test]
    fn late_joiner_does_not_monopolize() {
        let mut s = FairShare::new();
        s.register(1, 1);
        let _ = run(&mut s, 1000);
        s.register(2, 1);
        // From the join onward the two split slots evenly — no backlog
        // of "owed" grants for the newcomer.
        let counts = run(&mut s, 100);
        assert!(counts[&1] >= 48, "incumbent starved: {counts:?}");
        assert!(counts[&2] >= 48, "joiner starved: {counts:?}");
    }

    #[test]
    fn unregister_removes_from_rotation() {
        let mut s = FairShare::new();
        s.register(1, 1);
        s.register(2, 1);
        s.unregister(1);
        let counts = run(&mut s, 10);
        assert_eq!(counts.get(&1), None);
        assert_eq!(counts[&2], 10);
    }

    proptest! {
        /// Proportional share: with all studies always eligible, each
        /// study's grant count is within `#studies + 1` of its exact
        /// weighted share — the stride-scheduling fairness bound.
        #[test]
        fn grants_are_proportional_to_weight(
            weights in proptest::collection::vec(1u64..=9, 2..=6),
            rounds in 100usize..=400,
        ) {
            let mut s = FairShare::new();
            for (i, &w) in weights.iter().enumerate() {
                s.register(i as u64, w);
            }
            let counts = run(&mut s, rounds);
            let total: u64 = weights.iter().sum();
            let slack = weights.len() + 1;
            for (i, &w) in weights.iter().enumerate() {
                let got = counts.get(&(i as u64)).copied().unwrap_or(0) as f64;
                let fair = rounds as f64 * w as f64 / total as f64;
                prop_assert!(
                    (got - fair).abs() <= slack as f64,
                    "study {i} weight {w}: got {got}, fair share {fair:.1}"
                );
            }
        }

        /// Zero-weight studies are never granted a slot, whatever the
        /// competition or arrival order.
        #[test]
        fn zero_weight_never_picked(
            weights in proptest::collection::vec(0u64..=5, 1..=6),
            rounds in 1usize..=200,
        ) {
            let mut s = FairShare::new();
            for (i, &w) in weights.iter().enumerate() {
                s.register(i as u64, w);
            }
            let counts = run(&mut s, rounds);
            for (i, &w) in weights.iter().enumerate() {
                if w == 0 {
                    prop_assert_eq!(counts.get(&(i as u64)), None, "parked study {} granted", i);
                }
            }
        }

        /// Starvation-freedom: a weight-1 tenant beside an arbitrarily
        /// heavy tenant is granted at least once per `heavy + 2` slots.
        #[test]
        fn light_tenant_is_never_starved(heavy in 2u64..=1000) {
            let mut s = FairShare::new();
            s.register(1, heavy);
            s.register(2, 1);
            let window = heavy as usize + 2;
            let mut since_light = 0usize;
            for _ in 0..5 * window {
                match s.pick(|_| true) {
                    Some(2) => since_light = 0,
                    Some(_) => {
                        since_light += 1;
                        prop_assert!(
                            since_light < window,
                            "light tenant starved for {since_light} slots (heavy={heavy})"
                        );
                    }
                    None => unreachable!("two studies registered"),
                }
            }
        }
    }
}
