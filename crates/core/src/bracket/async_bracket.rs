use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, HashSet};

use hypertune_space::Config;

use crate::levels::ResourceLevels;

/// An asynchronous successive-halving bracket: ASHA, or D-ASHA when the
/// delay condition is enabled (Algorithm 1 of the paper).
///
/// Unlike [`crate::bracket::SyncBracket`] there is no barrier: whenever a
/// worker frees up, the owner first asks [`AsyncBracket::try_promote`];
/// if no promotion is possible it samples a fresh configuration and
/// registers it at the base rung with [`AsyncBracket::add_base_job`]
/// (lines 13–14 of Algorithm 1).
///
/// **ASHA rule** (delay off): promote any configuration in the top
/// `⌊|D_k|/η⌋` of its rung that has not been promoted yet — eager, but
/// incurs inaccurate promotions early when `|D_k|` is small.
///
/// **D-ASHA rule** (delay on): additionally require
/// `|D_k| / (|D_{k+1}| + 1) ≥ η` (lines 9–10), i.e. the current rung must
/// hold η measurements for every one the next rung would have after the
/// promotion. In-flight promotions count towards `|D_{k+1}|` so several
/// idle workers cannot rush past the threshold together.
///
/// Each rung keeps its results indexed in promotion order (see `Rung`),
/// so a suggestion costs `O(log |D_k|)` however long the study runs.
#[derive(Debug, Clone)]
pub struct AsyncBracket {
    base_level: usize,
    eta: usize,
    delay: bool,
    rungs: Vec<Rung>,
}

/// A result's place in its rung's promotion order: ascending value, ties
/// by arrival — what a stable sort of the results by value yields.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Rank {
    value: f64,
    arrival: usize,
}

impl Ord for Rank {
    fn cmp(&self, other: &Self) -> Ordering {
        #[cfg(test)]
        tests::count_op();
        self.value
            .partial_cmp(&other.value)
            .expect("values are not NaN")
            .then(self.arrival.cmp(&other.arrival))
    }
}

impl PartialOrd for Rank {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Eq for Rank {}

/// One rung's results, indexed so that "best unpromoted finite entry
/// inside the first `⌊|D_k|/η⌋` ranks" needs no sort: `top` and `rest`
/// split the ranks at the top-1/η boundary (which only ever moves
/// outward, one rank per η results), and `open` yields the best entry
/// still eligible. That entry is the candidate iff it ranks inside `top`.
#[derive(Debug, Clone, Default)]
struct Rung {
    /// Configurations of the completed measurements, in arrival order
    /// (their values live in the ranks).
    configs: Vec<Config>,
    /// Configurations already promoted out of this rung. Membership is by
    /// `Config` equality: one promotion blocks every equal entry of the
    /// rung, whether it arrived earlier or later.
    promoted: HashSet<Config>,
    /// Jobs dispatched to this rung that have not yet returned.
    outstanding: usize,
    /// The first `⌊|D_k|/η⌋` ranks; the peek is the last rank inside.
    top: BinaryHeap<Rank>,
    /// Every other rank, best first.
    rest: BinaryHeap<Reverse<Rank>>,
    /// Finite entries not yet seen in `promoted`, best first. Entries
    /// whose config was promoted through an equal entry are dropped when
    /// they surface, so each costs one `promoted` lookup over its life.
    open: BinaryHeap<Reverse<Rank>>,
}

impl Rung {
    fn insert(&mut self, config: Config, value: f64, eta: usize) {
        let rank = Rank {
            value,
            arrival: self.configs.len(),
        };
        self.configs.push(config);
        // Quarantined configs sit in the rung with value = +inf: they
        // occupy ranks and count toward |D_k| (their slot was spent) but
        // are never promotable, so a failure-riddled rung keeps admitting
        // fresh work instead of stalling.
        if value.is_finite() {
            self.open.push(Reverse(rank));
        }
        if self.top.peek().is_some_and(|last| rank < *last) {
            self.top.push(rank);
        } else {
            self.rest.push(Reverse(rank));
        }
        let n_top = self.configs.len() / eta;
        while self.top.len() > n_top {
            let last = self.top.pop().expect("top is non-empty");
            self.rest.push(Reverse(last));
        }
        while self.top.len() < n_top {
            let Reverse(next) = self.rest.pop().expect("top and rest hold every rank");
            self.top.push(next);
        }
    }

    /// Cond. 1: arrival index of the best unpromoted config within the
    /// top 1/η of this rung.
    fn candidate(&mut self) -> Option<usize> {
        let last_top = *self.top.peek()?;
        while let Some(&Reverse(best)) = self.open.peek() {
            if best > last_top {
                return None;
            }
            #[cfg(test)]
            tests::count_op();
            if !self.promoted.contains(&self.configs[best.arrival]) {
                return Some(best.arrival);
            }
            self.open.pop();
        }
        None
    }

    /// Marks the entry [`Rung::candidate`] just returned as promoted.
    fn promote(&mut self, arrival: usize) -> Config {
        let config = self.configs[arrival].clone();
        self.open.pop();
        self.promoted.insert(config.clone());
        config
    }
}

impl AsyncBracket {
    /// Creates the bracket whose lowest rung runs at `base_level`; it has
    /// `K − base_level` rungs up to the complete evaluation.
    pub fn new(levels: &ResourceLevels, base_level: usize, delay: bool) -> Self {
        assert!(base_level < levels.k());
        Self {
            base_level,
            eta: levels.eta(),
            delay,
            rungs: vec![Rung::default(); levels.k() - base_level],
        }
    }

    /// The bracket's base level.
    pub fn base_level(&self) -> usize {
        self.base_level
    }

    /// Whether the delay condition (D-ASHA) is active.
    pub fn is_delayed(&self) -> bool {
        self.delay
    }

    /// Completed measurements at absolute `level`.
    pub fn rung_len(&self, level: usize) -> usize {
        self.rungs[level - self.base_level].configs.len()
    }

    /// Scans rungs from second-highest down to base (the `for k = …` loop
    /// of Algorithm 1) and returns a promotion `(config, absolute level)`
    /// if one is admissible. The promoted config is immediately counted
    /// as outstanding at its new rung.
    pub fn try_promote(&mut self) -> Option<(Config, usize)> {
        self.try_promote_inner(None)
    }

    /// Exactly [`AsyncBracket::try_promote`], but additionally pushes the
    /// absolute level of every rung where the D-ASHA delay condition
    /// blocked an otherwise admissible candidate into `delayed` — the
    /// signal behind [`hypertune_telemetry::Event::PromotionDelayed`].
    /// The promotion decision itself is identical to `try_promote`; the
    /// extra candidate checks only run on delay-blocked rungs.
    pub fn try_promote_traced(&mut self, delayed: &mut Vec<usize>) -> Option<(Config, usize)> {
        self.try_promote_inner(Some(delayed))
    }

    fn try_promote_inner(
        &mut self,
        mut delayed: Option<&mut Vec<usize>>,
    ) -> Option<(Config, usize)> {
        for j in (0..self.rungs.len().saturating_sub(1)).rev() {
            // Delay condition (Cond. 2): |D_k| / (|D_{k+1}| + 1) >= eta,
            // with in-flight next-rung jobs counted in |D_{k+1}|.
            if self.delay {
                let d_k = self.rungs[j].configs.len();
                let d_next = self.rungs[j + 1].configs.len() + self.rungs[j + 1].outstanding;
                if d_k < self.eta * (d_next + 1) {
                    if let Some(d) = delayed.as_deref_mut() {
                        if self.rungs[j].candidate().is_some() {
                            d.push(self.base_level + j);
                        }
                    }
                    continue;
                }
            }
            if let Some(arrival) = self.rungs[j].candidate() {
                let config = self.rungs[j].promote(arrival);
                self.rungs[j + 1].outstanding += 1;
                return Some((config, self.base_level + j + 1));
            }
        }
        None
    }

    /// Registers a freshly sampled configuration dispatched at the base
    /// rung.
    pub fn add_base_job(&mut self) {
        self.rungs[0].outstanding += 1;
    }

    /// Records a completed evaluation at absolute `level`.
    ///
    /// # Panics
    ///
    /// Panics if `level` is outside this bracket's rungs, or if `value`
    /// is NaN and has to be ordered against another result.
    pub fn on_result(&mut self, config: Config, level: usize, value: f64) {
        let j = level
            .checked_sub(self.base_level)
            .expect("level below bracket base");
        let rung = &mut self.rungs[j];
        debug_assert!(rung.outstanding > 0, "result without outstanding job");
        rung.outstanding = rung.outstanding.saturating_sub(1);
        rung.insert(config, value, self.eta);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypertune_space::ParamValue;
    use proptest::prelude::*;
    use std::cell::Cell;

    thread_local! {
        /// Rank comparisons plus promoted-set lookups made on this thread.
        static OPS: Cell<u64> = const { Cell::new(0) };
    }

    pub(super) fn count_op() {
        OPS.with(|ops| ops.set(ops.get() + 1));
    }

    fn cfg(v: f64) -> Config {
        Config::new(vec![ParamValue::Float(v)])
    }

    /// The bracket as it was before the rung index: every candidate
    /// lookup stably sorts the whole rung and walks the top 1/η. Kept as
    /// the reference the indexed bracket must agree with decision for
    /// decision.
    struct FullSortBracket {
        base_level: usize,
        eta: usize,
        delay: bool,
        rungs: Vec<FullSortRung>,
    }

    #[derive(Clone, Default)]
    struct FullSortRung {
        results: Vec<(Config, f64)>,
        promoted: HashSet<Config>,
        outstanding: usize,
    }

    impl FullSortBracket {
        fn new(levels: &ResourceLevels, base_level: usize, delay: bool) -> Self {
            Self {
                base_level,
                eta: levels.eta(),
                delay,
                rungs: vec![FullSortRung::default(); levels.k() - base_level],
            }
        }

        fn candidate(&self, j: usize) -> Option<Config> {
            let rung = &self.rungs[j];
            let n_top = rung.results.len() / self.eta;
            let mut order: Vec<usize> = (0..rung.results.len()).collect();
            order.sort_by(|&a, &b| {
                rung.results[a]
                    .1
                    .partial_cmp(&rung.results[b].1)
                    .expect("values are not NaN")
            });
            order
                .into_iter()
                .take(n_top)
                .filter(|&i| rung.results[i].1.is_finite())
                .map(|i| &rung.results[i].0)
                .find(|c| !rung.promoted.contains(*c))
                .cloned()
        }

        fn try_promote(&mut self, mut delayed: Option<&mut Vec<usize>>) -> Option<(Config, usize)> {
            for j in (0..self.rungs.len().saturating_sub(1)).rev() {
                if self.delay {
                    let d_k = self.rungs[j].results.len();
                    let d_next = self.rungs[j + 1].results.len() + self.rungs[j + 1].outstanding;
                    if d_k < self.eta * (d_next + 1) {
                        if let Some(d) = delayed.as_deref_mut() {
                            if self.candidate(j).is_some() {
                                d.push(self.base_level + j);
                            }
                        }
                        continue;
                    }
                }
                if let Some(config) = self.candidate(j) {
                    self.rungs[j].promoted.insert(config.clone());
                    self.rungs[j + 1].outstanding += 1;
                    return Some((config, self.base_level + j + 1));
                }
            }
            None
        }

        fn add_base_job(&mut self) {
            self.rungs[0].outstanding += 1;
        }

        fn on_result(&mut self, config: Config, level: usize, value: f64) {
            let rung = &mut self.rungs[level - self.base_level];
            rung.outstanding -= 1;
            rung.results.push((config, value));
        }
    }

    proptest! {
        /// Random interleavings of dispatch, completion and (traced)
        /// promotion over a handful of configs and values — so duplicate
        /// configs, tied values and quarantined (+inf) entries are the
        /// norm — must yield the same promotions and the same delay
        /// reports from the indexed bracket as from the full sort.
        #[test]
        fn indexed_bracket_matches_full_sort_reference(
            eta in 2usize..=4,
            delay in any::<bool>(),
            ops in proptest::collection::vec((0u8..6, 0u8..6, 0u8..6, any::<u8>()), 0..400),
        ) {
            const VALUES: [f64; 6] = [0.1, 0.2, 0.2, 0.5, f64::INFINITY, 0.05];
            let levels = ResourceLevels::new(30.0, eta);
            let mut indexed = AsyncBracket::new(&levels, 0, delay);
            let mut reference = FullSortBracket::new(&levels, 0, delay);
            // Dispatched jobs awaiting their result: (config, level).
            let mut in_flight: Vec<(Config, usize)> = Vec::new();
            for (op, c, v, pick) in ops {
                match op {
                    0 | 1 => {
                        indexed.add_base_job();
                        reference.add_base_job();
                        in_flight.push((cfg(f64::from(c)), 0));
                    }
                    2 | 3 if !in_flight.is_empty() => {
                        let (config, level) =
                            in_flight.swap_remove(usize::from(pick) % in_flight.len());
                        let value = VALUES[usize::from(v)];
                        indexed.on_result(config.clone(), level, value);
                        reference.on_result(config, level, value);
                    }
                    4 => {
                        let got = indexed.try_promote();
                        prop_assert_eq!(&got, &reference.try_promote(None));
                        in_flight.extend(got);
                    }
                    5 => {
                        let (mut d_got, mut d_want) = (Vec::new(), Vec::new());
                        let got = indexed.try_promote_traced(&mut d_got);
                        prop_assert_eq!(&got, &reference.try_promote(Some(&mut d_want)));
                        prop_assert_eq!(d_got, d_want);
                        in_flight.extend(got);
                    }
                    _ => {}
                }
            }
        }
    }

    /// The cost of a suggestion must not grow with the rung: a count of
    /// rank comparisons and promoted-set lookups, so a busy box cannot
    /// make it flake. (The full sort spent ~n·log₂n comparisons on *each*
    /// of these calls.)
    #[test]
    fn promotion_cost_does_not_grow_with_the_rung() {
        const N: usize = 20_000;
        let mut b = AsyncBracket::new(&levels(), 0, false);
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut per_call = Vec::with_capacity(N);
        for i in 0..N {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let value = (state >> 11) as f64 / (1u64 << 53) as f64;
            let before = OPS.with(Cell::get);
            b.add_base_job();
            // Repeating configs exercise the promoted-by-equality path.
            b.on_result(cfg((i % 4096) as f64), 0, value);
            if let Some((config, level)) = b.try_promote() {
                b.on_result(config, level, value);
            }
            per_call.push(OPS.with(Cell::get) - before);
        }
        let total: u64 = per_call.iter().sum();
        let bound = 4.0 * N as f64 * (N as f64).log2();
        assert!(
            (total as f64) <= bound,
            "{total} ops > 4·n·log2(n) = {bound}"
        );
        let first: u64 = per_call[..1000].iter().sum();
        let last: u64 = per_call[N - 1000..].iter().sum();
        assert!(
            last <= 2 * first,
            "last 1000 calls {last} ops vs first 1000 {first}"
        );
    }

    fn levels() -> ResourceLevels {
        ResourceLevels::new(27.0, 3)
    }

    fn feed(b: &mut AsyncBracket, level: usize, values: &[f64]) {
        for &v in values {
            if level == b.base_level() {
                b.add_base_job();
            }
            b.on_result(cfg(v), level, v);
        }
    }

    #[test]
    fn asha_promotes_after_eta_results() {
        let mut b = AsyncBracket::new(&levels(), 0, false);
        feed(&mut b, 0, &[0.3, 0.1]);
        // Two results: floor(2/3) = 0, nothing promotable yet.
        assert!(b.try_promote().is_none());
        feed(&mut b, 0, &[0.2]);
        // Three results: the best (0.1) is promoted to level 1.
        let (c, lvl) = b.try_promote().unwrap();
        assert_eq!(lvl, 1);
        assert_eq!(c, cfg(0.1));
        // No second candidate within top 1/3 of 3.
        assert!(b.try_promote().is_none());
    }

    #[test]
    fn asha_never_promotes_same_config_twice() {
        let mut b = AsyncBracket::new(&levels(), 0, false);
        feed(&mut b, 0, &[0.1, 0.2, 0.3, 0.4, 0.5, 0.6]);
        let first = b.try_promote().unwrap();
        let second = b.try_promote().unwrap();
        assert_ne!(first.0, second.0);
        assert!(b.try_promote().is_none());
    }

    #[test]
    fn dasha_delays_promotion_until_quota() {
        let mut b = AsyncBracket::new(&levels(), 0, true);
        feed(&mut b, 0, &[0.1, 0.2, 0.3]);
        // ASHA would promote now; D-ASHA requires |D_0| >= eta*(0+1) = 3,
        // which holds, so first promotion goes through.
        let p = b.try_promote().unwrap();
        assert_eq!(p.1, 1);
        // Second promotion now needs |D_0| >= eta*(|D_1|+outstanding+1)
        // = 3*(0+1+1) = 6; with 3 base results it must wait.
        feed(&mut b, 0, &[0.05, 0.15]);
        assert!(b.try_promote().is_none(), "delay must hold at 5 results");
        feed(&mut b, 0, &[0.25]);
        let p2 = b.try_promote().unwrap();
        assert_eq!(p2.1, 1);
        assert_eq!(p2.0, cfg(0.05));
    }

    #[test]
    fn dasha_counts_inflight_promotions() {
        let mut b = AsyncBracket::new(&levels(), 0, true);
        feed(
            &mut b,
            0,
            &(0..9).map(|i| i as f64 / 10.0).collect::<Vec<_>>(),
        );
        // 9 base results: quota allows |D_1| + 1 <= 3 promotions.
        assert!(b.try_promote().is_some());
        assert!(b.try_promote().is_some());
        // Third would make |D_1|-after = 3; requires |D_0| >= 3*3 = 9 — ok.
        assert!(b.try_promote().is_some());
        // Fourth requires 12 base results.
        assert!(b.try_promote().is_none());
    }

    #[test]
    fn promotion_chain_reaches_top_level() {
        let mut b = AsyncBracket::new(&levels(), 0, false);
        // Feed plenty of base results.
        feed(&mut b, 0, &(0..9).map(|i| i as f64).collect::<Vec<_>>());
        // Promote three configs to level 1 and finish them there.
        for _ in 0..3 {
            let (c, lvl) = b.try_promote().unwrap();
            assert_eq!(lvl, 1);
            let v = c.values()[0].as_f64().unwrap();
            b.on_result(c, 1, v);
        }
        // Best of level 1 promotes to level 2 (scan starts at the top).
        let (c, lvl) = b.try_promote().unwrap();
        assert_eq!(lvl, 2);
        assert_eq!(c, cfg(0.0));
        b.on_result(c, 2, 0.0);
        // Level 2 has one result — not promotable (floor(1/3) = 0).
        assert!(b.try_promote().is_none());
    }

    #[test]
    fn higher_rungs_scanned_first() {
        let mut b = AsyncBracket::new(&levels(), 0, false);
        feed(&mut b, 0, &[0.1, 0.2, 0.3, 0.4, 0.5, 0.6]);
        // Promote two to level 1, complete them.
        for _ in 0..2 {
            let (c, _) = b.try_promote().unwrap();
            let v = c.values()[0].as_f64().unwrap();
            b.on_result(c, 1, v);
        }
        feed(&mut b, 0, &[0.7, 0.8, 0.9]);
        // Nine base results: the third-best (0.3) promotes to level 1.
        let (c, lvl) = b.try_promote().unwrap();
        assert_eq!((c.clone(), lvl), (cfg(0.3), 1));
        b.on_result(c, 1, 0.3);
        // Level 1 now has 3 results (promotable) and level 0 still has
        // unpromoted top candidates; the scan must pick level 1 first.
        let (_, lvl) = b.try_promote().unwrap();
        assert_eq!(lvl, 2);
    }

    #[test]
    fn base_level_offset_respected() {
        let mut b = AsyncBracket::new(&levels(), 2, false);
        feed(&mut b, 2, &[0.1, 0.2, 0.3]);
        let (_, lvl) = b.try_promote().unwrap();
        assert_eq!(lvl, 3);
        // A bracket based at the top level never promotes.
        let mut top = AsyncBracket::new(&levels(), 3, false);
        feed(&mut top, 3, &[0.1, 0.2, 0.3, 0.4]);
        assert!(top.try_promote().is_none());
    }

    #[test]
    fn quarantined_results_never_promote_but_count_toward_rung() {
        let mut b = AsyncBracket::new(&levels(), 0, false);
        // Two quarantined configs (value = +inf) and one success.
        feed(&mut b, 0, &[f64::INFINITY, f64::INFINITY, 0.2]);
        // Three results make floor(3/3) = 1 slot, and the finite config is
        // the rung's best, so it promotes.
        let (c, lvl) = b.try_promote().unwrap();
        assert_eq!((c, lvl), (cfg(0.2), 1));
        // Nothing else is promotable: the remaining top entries are inf.
        assert!(b.try_promote().is_none());
        feed(&mut b, 0, &[f64::INFINITY, f64::INFINITY, f64::INFINITY]);
        // Six results, two slots, but slot 2 would be an inf config.
        assert!(b.try_promote().is_none(), "inf entries must never promote");
    }

    #[test]
    fn all_failed_rung_does_not_stall_scan() {
        let mut b = AsyncBracket::new(&levels(), 0, true);
        feed(&mut b, 0, &[f64::INFINITY; 6]);
        // D-ASHA quota is satisfied but every candidate is quarantined:
        // the caller falls through to sampling a fresh config.
        assert!(b.try_promote().is_none());
    }

    #[test]
    fn traced_promotion_matches_untraced_and_reports_delays() {
        // Build a state where the delay quota blocks a live candidate:
        // promote once, then land two *better* configs at the base rung
        // while the quota (|D_0| >= eta*(|D_1|+1) = 6) is not yet met.
        let mut traced = AsyncBracket::new(&levels(), 0, true);
        feed(&mut traced, 0, &[0.3, 0.2, 0.4]);
        assert_eq!(traced.try_promote().unwrap().0, cfg(0.2));
        feed(&mut traced, 0, &[0.1, 0.15]);
        let mut plain = traced.clone();
        let mut delayed = Vec::new();
        let a = traced.try_promote_traced(&mut delayed);
        let b = plain.try_promote();
        assert_eq!(a, b, "traced promotion must not change decisions");
        assert!(a.is_none(), "5 results < quota 6: promotion must wait");
        assert_eq!(delayed, vec![0], "0.1 was admissible but delayed");
        // One more base result satisfies the quota; both variants now
        // promote the same config and report no delay.
        feed(&mut traced, 0, &[0.5]);
        feed(&mut plain, 0, &[0.5]);
        delayed.clear();
        let a = traced.try_promote_traced(&mut delayed);
        assert_eq!(a, plain.try_promote());
        assert_eq!(a.unwrap().0, cfg(0.1));
        assert!(delayed.is_empty());
    }

    #[test]
    fn traced_promotion_reports_nothing_without_blocked_candidate() {
        let mut b = AsyncBracket::new(&levels(), 0, true);
        feed(&mut b, 0, &[0.1, 0.2]);
        let mut delayed = Vec::new();
        // floor(2/3) = 0: no candidate exists, so even though the delay
        // condition fails nothing is reported.
        assert!(b.try_promote_traced(&mut delayed).is_none());
        assert!(delayed.is_empty());
    }

    #[test]
    fn rung_len_reports_results() {
        let mut b = AsyncBracket::new(&levels(), 0, false);
        feed(&mut b, 0, &[0.5, 0.6]);
        assert_eq!(b.rung_len(0), 2);
        assert_eq!(b.rung_len(1), 0);
    }
}
