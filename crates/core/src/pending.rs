//! The runners' in-flight job set.
//!
//! Both runners used to resolve completions by scanning `pending` for a
//! `JobSpec` equal to the finished job — `O(n)` per completion, on the
//! dispatch hot path. [`PendingSet`] replaces the scan with a hash index
//! from job content to slots, making removal `O(1)` expected.
//!
//! Two things are preserved exactly, because methods observe the pending
//! set (as `MethodContext::pending`) and the samplers' order-sensitive
//! `pending_fingerprint` keys model caches on it:
//!
//! - the insertion-ordered `Vec` with `swap_remove` holes, and
//! - the scan's removal choice: when several in-flight jobs are equal
//!   (small discrete spaces dispatch bit-identical configurations
//!   routinely), the *lowest-slot* equal job is removed — what
//!   `position(|p| *p == spec)` returned. Equal twins differ only in
//!   their dispatch [`JobSpec::id`], which nothing models, so the choice
//!   is observationally arbitrary; pinning it keeps runs bit-identical
//!   to the historical scan.

use std::collections::HashMap;

use hypertune_space::ParamValue;

use crate::method::JobSpec;

/// FNV-1a content hash of everything the old equality scan compared —
/// every field but the dispatch id. `-0.0` is normalized to `0.0` so the
/// hash never separates values the scan's `==` considered equal.
pub(crate) fn content_key(spec: &JobSpec) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    mix(spec.level as u64);
    mix((spec.resource + 0.0).to_bits());
    mix(spec.bracket.map_or(u64::MAX, |b| b as u64));
    for v in spec.config.values() {
        match v {
            ParamValue::Float(f) => mix((f + 0.0).to_bits()),
            ParamValue::Int(i) => mix(*i as u64),
            ParamValue::Cat(c) => mix(*c as u64 ^ 0x8000_0000_0000_0000),
        }
    }
    h
}

/// The old scan's equality: every field but the dispatch id.
pub(crate) fn same_job(a: &JobSpec, b: &JobSpec) -> bool {
    a.level == b.level && a.resource == b.resource && a.bracket == b.bracket && a.config == b.config
}

/// In-flight jobs, ordered like the old `Vec<JobSpec>` but with `O(1)`
/// expected removal. See the module docs.
#[derive(Debug, Clone, Default)]
pub(crate) struct PendingSet {
    jobs: Vec<JobSpec>,
    /// Content hash → slots in `jobs` holding that content.
    index: HashMap<u64, Vec<usize>>,
}

impl PendingSet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// The pending jobs, in insertion order modulo `swap_remove` holes —
    /// the view methods receive as `MethodContext::pending`.
    pub fn as_slice(&self) -> &[JobSpec] {
        &self.jobs
    }

    /// Adds a dispatched job.
    pub fn insert(&mut self, spec: JobSpec) {
        self.index
            .entry(content_key(&spec))
            .or_default()
            .push(self.jobs.len());
        self.jobs.push(spec);
    }

    /// `true` when a job equal to `spec` (every field but the dispatch
    /// id) is pending.
    pub fn contains(&self, spec: &JobSpec) -> bool {
        self.index
            .get(&content_key(spec))
            .is_some_and(|slots| slots.iter().any(|&s| same_job(&self.jobs[s], spec)))
    }

    /// Removes and returns the lowest-slot pending job equal to `spec`
    /// (`swap_remove`, so one other element may move into its slot).
    ///
    /// # Panics
    ///
    /// Panics if no such job is pending.
    pub fn remove(&mut self, spec: &JobSpec) -> JobSpec {
        let key = content_key(spec);
        let slots = self.index.get_mut(&key).expect("completed job was pending");
        let (pos, &slot) = slots
            .iter()
            .enumerate()
            .filter(|&(_, &s)| same_job(&self.jobs[s], spec))
            .min_by_key(|&(_, &s)| s)
            .expect("completed job was pending");
        slots.swap_remove(pos);
        if slots.is_empty() {
            self.index.remove(&key);
        }
        let removed = self.jobs.swap_remove(slot);
        if slot < self.jobs.len() {
            // The previous last element moved into `slot`; repoint it.
            let last = self.jobs.len();
            let moved = self
                .index
                .get_mut(&content_key(&self.jobs[slot]))
                .expect("index covers every pending job");
            let p = moved
                .iter()
                .position(|&s| s == last)
                .expect("moved job was indexed at the last slot");
            moved[p] = slot;
        }
        removed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypertune_space::Config;

    fn job(id: u64, x: f64) -> JobSpec {
        JobSpec {
            config: Config::new(vec![ParamValue::Float(x)]),
            level: 0,
            resource: 1.0,
            bracket: None,
            id,
        }
    }

    #[test]
    fn insert_preserves_order() {
        let mut p = PendingSet::new();
        p.insert(job(1, 0.1));
        p.insert(job(2, 0.2));
        p.insert(job(3, 0.3));
        let ids: Vec<u64> = p.as_slice().iter().map(|j| j.id).collect();
        assert_eq!(ids, vec![1, 2, 3]);
        assert_eq!(p.as_slice().len(), 3);
    }

    #[test]
    fn remove_matches_swap_remove_semantics() {
        let mut p = PendingSet::new();
        for i in 1..=4 {
            p.insert(job(i, i as f64));
        }
        let removed = p.remove(&job(2, 2.0));
        assert_eq!(removed.id, 2);
        // Last element moved into the vacated slot, like Vec::swap_remove.
        let ids: Vec<u64> = p.as_slice().iter().map(|j| j.id).collect();
        assert_eq!(ids, vec![1, 4, 3]);
        // The moved element stays addressable.
        assert_eq!(p.remove(&job(4, 4.0)).id, 4);
        assert_eq!(p.remove(&job(1, 1.0)).id, 1);
        assert_eq!(p.remove(&job(3, 3.0)).id, 3);
        assert!(p.as_slice().is_empty());
    }

    #[test]
    fn equal_twins_remove_lowest_slot_first() {
        // Two dispatches of a bit-identical config: removal takes the
        // lowest slot regardless of which instance's id completed — the
        // old scan's behavior, which seeded runs depend on.
        let mut p = PendingSet::new();
        p.insert(job(1, 0.5));
        p.insert(job(7, 0.9));
        p.insert(job(2, 0.5));
        let removed = p.remove(&job(2, 0.5));
        assert_eq!(removed.id, 1);
        let ids: Vec<u64> = p.as_slice().iter().map(|j| j.id).collect();
        assert_eq!(ids, vec![2, 7]);
        assert_eq!(p.remove(&job(1, 0.5)).id, 2);
    }

    #[test]
    fn dispatch_id_does_not_affect_matching() {
        let mut p = PendingSet::new();
        p.insert(job(5, 0.25));
        assert!(p.contains(&job(99, 0.25)));
        assert!(!p.contains(&job(5, 0.5)));
        assert_eq!(p.remove(&job(99, 0.25)).id, 5);
        assert!(p.as_slice().is_empty());
        assert!(!p.contains(&job(5, 0.25)));
    }

    #[test]
    #[should_panic(expected = "completed job was pending")]
    fn removing_unknown_job_panics() {
        let mut p = PendingSet::new();
        p.insert(job(1, 0.0));
        p.remove(&job(1, 0.75));
    }
}
