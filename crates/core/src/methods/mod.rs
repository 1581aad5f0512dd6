//! All tuning methods: Hyper-Tune and the paper's baselines (§5.1).
//!
//! Two engines cover the Hyperband family:
//!
//! - [`SyncHb`] — synchronous successive halving with barriers
//!   (SHA, Hyperband, BOHB, MFES-HB, Batch-BO-style batching);
//! - [`AsyncHb`] — asynchronous promotion (ASHA, A-Hyperband, A-BOHB,
//!   and **Hyper-Tune** itself), parameterized by bracket policy
//!   (fixed / round-robin / learned bracket selection), the D-ASHA delay
//!   condition, and the sampler.
//!
//! [`MethodKind`] is the factory the experiment harness uses: every
//! method/ablation in the paper's figures is one enum variant.

mod async_hb;
mod simple;
mod sync_hb;

pub use async_hb::{AsyncHb, BracketPolicy};
pub use simple::{ABo, ARandom, ARea, BatchBo};
pub use sync_hb::{CyclePolicy, SyncHb};

use crate::levels::ResourceLevels;
use crate::method::Method;
use crate::sampler::{BoSampler, MfesSampler, RandomSampler, TpeSampler};

/// Every method evaluated in the paper, as a buildable enum.
///
/// Serde-derived (unit variants serialize as their names, e.g.
/// `"HyperTune"`) so a study spec can name its method in a JSONL
/// command stream or a study's lifecycle record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum MethodKind {
    /// Asynchronous random search with complete evaluations.
    ARandom,
    /// Synchronous batch Bayesian optimization (González et al.).
    BatchBo,
    /// Asynchronous Bayesian optimization with median imputation.
    ABo,
    /// Synchronous successive halving (most aggressive bracket).
    Sha,
    /// ASHA: asynchronous successive halving.
    Asha,
    /// Synchronous Hyperband (brackets cycled round-robin).
    Hyperband,
    /// Asynchronous Hyperband (ASHA brackets, round-robin).
    AHyperband,
    /// BOHB: Hyperband + Bayesian-optimization sampling.
    Bohb,
    /// Asynchronous BOHB (parallelized via ASHA, as in §5.7).
    ABohb,
    /// MFES-HB: Hyperband + multi-fidelity ensemble sampling.
    MfesHb,
    /// Asynchronous regularized evolution (§5.2).
    ARea,
    /// Hyper-Tune: bracket selection + D-ASHA + MFES (the paper's method).
    HyperTune,
    /// Ablation: Hyper-Tune without bracket selection (round-robin).
    HyperTuneNoBs,
    /// Ablation: Hyper-Tune without the D-ASHA delay (plain ASHA rule).
    HyperTuneNoDasha,
    /// Ablation: Hyper-Tune without MFES (high-fidelity BO sampler).
    HyperTuneNoMfes,
    /// Figure 8 variant: ASHA with the D-ASHA delay.
    AshaDasha,
    /// Figure 8 variant: A-Hyperband with the D-ASHA delay.
    AHyperbandDasha,
    /// Figure 8 variant: A-BOHB with the D-ASHA delay.
    ABohbDasha,
    /// Figure 8 variant: A-Hyperband with bracket selection.
    AHyperbandBs,
    /// Figure 8 variant: A-BOHB with bracket selection.
    ABohbBs,
    /// BOHB with the original TPE sampler instead of RF-EI (extra
    /// ablation: sampler-family comparison).
    BohbTpe,
    /// Hyper-Tune with the TPE sampler dropped into the optimizer slot
    /// (extra ablation: demonstrates the generic optimizer abstraction).
    HyperTuneTpe,
}

impl MethodKind {
    /// Display name matching the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            MethodKind::ARandom => "A-Random",
            MethodKind::BatchBo => "BO",
            MethodKind::ABo => "A-BO",
            MethodKind::Sha => "SHA",
            MethodKind::Asha => "ASHA",
            MethodKind::Hyperband => "Hyperband",
            MethodKind::AHyperband => "A-Hyperband",
            MethodKind::Bohb => "BOHB",
            MethodKind::ABohb => "A-BOHB",
            MethodKind::MfesHb => "MFES-HB",
            MethodKind::ARea => "A-REA",
            MethodKind::HyperTune => "Hyper-Tune",
            MethodKind::HyperTuneNoBs => "Hyper-Tune w/o BS",
            MethodKind::HyperTuneNoDasha => "Hyper-Tune w/o D-ASHA",
            MethodKind::HyperTuneNoMfes => "Hyper-Tune w/o MFES",
            MethodKind::AshaDasha => "ASHA + D-ASHA",
            MethodKind::AHyperbandDasha => "A-Hyperband + D-ASHA",
            MethodKind::ABohbDasha => "A-BOHB + D-ASHA",
            MethodKind::AHyperbandBs => "A-Hyperband + BS",
            MethodKind::ABohbBs => "A-BOHB + BS",
            MethodKind::BohbTpe => "BOHB (TPE)",
            MethodKind::HyperTuneTpe => "Hyper-Tune (TPE)",
        }
    }

    /// `true` for methods without synchronization barriers.
    pub fn is_async(&self) -> bool {
        !matches!(
            self,
            MethodKind::BatchBo
                | MethodKind::Sha
                | MethodKind::Hyperband
                | MethodKind::Bohb
                | MethodKind::MfesHb
                | MethodKind::BohbTpe
        )
    }

    /// Every variant, in declaration order — the full sweep the
    /// determinism and batch-contract tests iterate over.
    pub fn all() -> &'static [MethodKind] {
        &[
            MethodKind::ARandom,
            MethodKind::BatchBo,
            MethodKind::ABo,
            MethodKind::Sha,
            MethodKind::Asha,
            MethodKind::Hyperband,
            MethodKind::AHyperband,
            MethodKind::Bohb,
            MethodKind::ABohb,
            MethodKind::MfesHb,
            MethodKind::ARea,
            MethodKind::HyperTune,
            MethodKind::HyperTuneNoBs,
            MethodKind::HyperTuneNoDasha,
            MethodKind::HyperTuneNoMfes,
            MethodKind::AshaDasha,
            MethodKind::AHyperbandDasha,
            MethodKind::ABohbDasha,
            MethodKind::AHyperbandBs,
            MethodKind::ABohbBs,
            MethodKind::BohbTpe,
            MethodKind::HyperTuneTpe,
        ]
    }

    /// The ten baselines of §5.1 plus A-REA, in the paper's order.
    pub fn baselines() -> &'static [MethodKind] {
        &[
            MethodKind::ARandom,
            MethodKind::BatchBo,
            MethodKind::ABo,
            MethodKind::Sha,
            MethodKind::Asha,
            MethodKind::Hyperband,
            MethodKind::AHyperband,
            MethodKind::Bohb,
            MethodKind::ABohb,
            MethodKind::MfesHb,
            MethodKind::ARea,
        ]
    }

    /// Instantiates the method for a given level ladder and seed.
    pub fn build(&self, levels: &ResourceLevels, seed: u64) -> Box<dyn Method> {
        use BracketPolicy as BP;
        use CyclePolicy as CP;
        let name = self.name().to_string();
        match self {
            MethodKind::ARandom => Box::new(ARandom::new()),
            MethodKind::BatchBo => Box::new(BatchBo::new(seed)),
            MethodKind::ABo => Box::new(ABo::new(seed)),
            MethodKind::ARea => Box::new(ARea::new(seed)),
            MethodKind::Sha => Box::new(SyncHb::new(
                name,
                levels,
                CP::Fixed(0),
                Box::new(RandomSampler),
                seed,
            )),
            MethodKind::Hyperband => Box::new(SyncHb::new(
                name,
                levels,
                CP::Cycle,
                Box::new(RandomSampler),
                seed,
            )),
            MethodKind::Bohb => Box::new(SyncHb::new(
                name,
                levels,
                CP::Cycle,
                Box::new(BoSampler::new(seed)),
                seed,
            )),
            MethodKind::MfesHb => Box::new(SyncHb::new(
                name,
                levels,
                CP::Cycle,
                Box::new(MfesSampler::new(seed)),
                seed,
            )),
            MethodKind::Asha => Box::new(AsyncHb::new(
                name,
                levels,
                BP::fixed(0),
                false,
                Box::new(RandomSampler),
                seed,
            )),
            MethodKind::AshaDasha => Box::new(AsyncHb::new(
                name,
                levels,
                BP::fixed(0),
                true,
                Box::new(RandomSampler),
                seed,
            )),
            MethodKind::AHyperband => Box::new(AsyncHb::new(
                name,
                levels,
                BP::round_robin(levels),
                false,
                Box::new(RandomSampler),
                seed,
            )),
            MethodKind::AHyperbandDasha => Box::new(AsyncHb::new(
                name,
                levels,
                BP::round_robin(levels),
                true,
                Box::new(RandomSampler),
                seed,
            )),
            MethodKind::AHyperbandBs => Box::new(AsyncHb::new(
                name,
                levels,
                BP::learned(levels),
                false,
                Box::new(RandomSampler),
                seed,
            )),
            MethodKind::ABohb => Box::new(AsyncHb::new(
                name,
                levels,
                BP::round_robin(levels),
                false,
                Box::new(BoSampler::new(seed)),
                seed,
            )),
            MethodKind::ABohbDasha => Box::new(AsyncHb::new(
                name,
                levels,
                BP::round_robin(levels),
                true,
                Box::new(BoSampler::new(seed)),
                seed,
            )),
            MethodKind::ABohbBs => Box::new(AsyncHb::new(
                name,
                levels,
                BP::learned(levels),
                false,
                Box::new(BoSampler::new(seed)),
                seed,
            )),
            MethodKind::HyperTune => Box::new(AsyncHb::new(
                name,
                levels,
                BP::learned(levels),
                true,
                Box::new(MfesSampler::new(seed)),
                seed,
            )),
            MethodKind::HyperTuneNoBs => Box::new(AsyncHb::new(
                name,
                levels,
                BP::round_robin(levels),
                true,
                Box::new(MfesSampler::new(seed)),
                seed,
            )),
            MethodKind::HyperTuneNoDasha => Box::new(AsyncHb::new(
                name,
                levels,
                BP::learned(levels),
                false,
                Box::new(MfesSampler::new(seed)),
                seed,
            )),
            MethodKind::HyperTuneNoMfes => Box::new(AsyncHb::new(
                name,
                levels,
                BP::learned(levels),
                true,
                Box::new(BoSampler::new(seed)),
                seed,
            )),
            MethodKind::BohbTpe => Box::new(SyncHb::new(
                name,
                levels,
                CP::Cycle,
                Box::new(TpeSampler::new()),
                seed,
            )),
            MethodKind::HyperTuneTpe => Box::new(AsyncHb::new(
                name,
                levels,
                BP::learned(levels),
                true,
                Box::new(TpeSampler::new()),
                seed,
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kind_builds() {
        let levels = ResourceLevels::new(27.0, 3);
        assert_eq!(MethodKind::all().len(), 22);
        for &k in MethodKind::all() {
            let m = k.build(&levels, 0);
            assert_eq!(m.name(), k.name());
        }
    }

    #[test]
    fn sync_flags_match_paper() {
        // "Batch-BO, SHA, Hyperband, BOHB, and MFES-HB are synchronous
        // methods, and the others are asynchronous ones."
        assert!(!MethodKind::BatchBo.is_async());
        assert!(!MethodKind::Sha.is_async());
        assert!(!MethodKind::Hyperband.is_async());
        assert!(!MethodKind::Bohb.is_async());
        assert!(!MethodKind::MfesHb.is_async());
        assert!(MethodKind::ARandom.is_async());
        assert!(MethodKind::ABo.is_async());
        assert!(MethodKind::Asha.is_async());
        assert!(MethodKind::AHyperband.is_async());
        assert!(MethodKind::ABohb.is_async());
        assert!(MethodKind::HyperTune.is_async());
    }

    #[test]
    fn baselines_list_has_eleven_methods() {
        assert_eq!(MethodKind::baselines().len(), 11);
    }
}
