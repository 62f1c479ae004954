//! Run configuration: the optimization variants of §IV-C.

use dirgl_comm::{CommMode, FaultPlan};
use dirgl_gpusim::Balancer;
use dirgl_partition::Policy;

/// Execution model (§III-B).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ExecModel {
    /// Bulk-synchronous parallel: global rounds.
    Sync,
    /// Bulk-asynchronous parallel (BASP): local rounds, stale reads allowed.
    Async,
}

impl ExecModel {
    /// Display name matching the paper.
    pub fn name(self) -> &'static str {
        match self {
            ExecModel::Sync => "Sync",
            ExecModel::Async => "Async",
        }
    }
}

/// One of the paper's four D-IrGL optimization variants (§IV-C).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Variant {
    /// Computation load balancer (TWC vs ALB).
    pub balancer: Balancer,
    /// Communication mode (AS vs UO).
    pub comm: CommMode,
    /// Execution model (Sync vs Async).
    pub model: ExecModel,
}

impl Variant {
    /// Var1 (baseline): TWC + AS + Sync.
    pub fn var1() -> Variant {
        Variant {
            balancer: Balancer::Twc,
            comm: CommMode::AllShared,
            model: ExecModel::Sync,
        }
    }

    /// Var2: ALB + AS + Sync.
    pub fn var2() -> Variant {
        Variant {
            balancer: Balancer::Alb,
            comm: CommMode::AllShared,
            model: ExecModel::Sync,
        }
    }

    /// Var3: ALB + UO + Sync.
    pub fn var3() -> Variant {
        Variant {
            balancer: Balancer::Alb,
            comm: CommMode::UpdatedOnly,
            model: ExecModel::Sync,
        }
    }

    /// Var4 (D-IrGL default): ALB + UO + Async.
    pub fn var4() -> Variant {
        Variant {
            balancer: Balancer::Alb,
            comm: CommMode::UpdatedOnly,
            model: ExecModel::Async,
        }
    }

    /// All four, in paper order.
    pub fn all() -> [Variant; 4] {
        [Self::var1(), Self::var2(), Self::var3(), Self::var4()]
    }

    /// `Var1`..`Var4` if this is one of the presets, else a composed name.
    pub fn label(&self) -> String {
        for (i, v) in Self::all().iter().enumerate() {
            if v == self {
                return format!("Var{}", i + 1);
            }
        }
        format!("{}+{}+{}", self.balancer, self.comm, self.model.name())
    }
}

/// Everything a [`crate::Runtime`] needs besides the platform.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Partitioning policy.
    pub policy: Policy,
    /// Optimization variant.
    pub variant: Variant,
    /// Paper-equivalence divisor of the dataset (1 = unscaled). Scales
    /// kernel work, message bytes, and device memory capacity; see
    /// `DESIGN.md` §6.
    pub scale_divisor: u64,
    /// Seed for the partitioner's randomized policies.
    pub seed: u64,
    /// Model GPUDirect device↔device transfers (paper §VII recommendation;
    /// off everywhere in the paper's measured systems).
    pub gpudirect: bool,
    /// Extra per-round runtime cost in seconds (0 for D-IrGL; the Lux
    /// baseline charges its Legion task-mapping overhead here).
    pub runtime_round_overhead_secs: f64,
    /// BASP throttle: minimum gap between consecutive local rounds on a
    /// device, in seconds. 0 = unthrottled (the paper's Var4). A positive
    /// gap batches arrivals per round, trading latency for less redundant
    /// recomputation — the control mechanism the paper's conclusion calls
    /// for ("dynamically throttle the degree of asynchronous execution").
    pub basp_round_gap_secs: f64,
    /// Fault schedule the transport runs under. Every message goes through
    /// the retry/ack transport; under the default, [`FaultPlan::none()`],
    /// each takes one attempt and costs one link-model send.
    pub faults: FaultPlan,
    /// Checkpoint every `k` rounds, charging each dump's PCIe time, with
    /// or without a fault plan. When `k > 0` or the plan schedules a crash,
    /// round 0 is checkpointed too; 0 with no crash takes none.
    /// Rollback-based recovery replays from the most recent checkpoint.
    pub checkpoint_every_rounds: u32,
}

impl RunConfig {
    /// Default-variant (Var4) config for `policy`.
    pub fn var4(policy: Policy) -> RunConfig {
        Self::new(policy, Variant::var4())
    }

    /// Any variant with the given policy.
    pub fn new(policy: Policy, variant: Variant) -> RunConfig {
        RunConfig {
            policy,
            variant,
            scale_divisor: 1,
            seed: 0,
            gpudirect: false,
            runtime_round_overhead_secs: 0.0,
            basp_round_gap_secs: 0.0,
            faults: FaultPlan::none(),
            checkpoint_every_rounds: 0,
        }
    }

    /// Sets the paper-equivalence divisor (builder style).
    pub fn scale(mut self, divisor: u64) -> RunConfig {
        self.scale_divisor = divisor.max(1);
        self
    }

    /// Runs the transport under `plan` (builder style).
    pub fn with_faults(mut self, plan: FaultPlan) -> RunConfig {
        self.faults = plan;
        self
    }

    /// Sets the checkpoint interval in rounds (builder style).
    pub fn with_checkpoints(mut self, every_rounds: u32) -> RunConfig {
        self.checkpoint_every_rounds = every_rounds;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variant_presets_match_the_paper() {
        let v1 = Variant::var1();
        assert_eq!(
            (v1.balancer, v1.comm, v1.model),
            (Balancer::Twc, CommMode::AllShared, ExecModel::Sync)
        );
        let v4 = Variant::var4();
        assert_eq!(
            (v4.balancer, v4.comm, v4.model),
            (Balancer::Alb, CommMode::UpdatedOnly, ExecModel::Async)
        );
        assert_eq!(Variant::var2().label(), "Var2");
        let custom = Variant {
            balancer: Balancer::Twc,
            comm: CommMode::UpdatedOnly,
            model: ExecModel::Sync,
        };
        assert_eq!(custom.label(), "TWC+UO+Sync");
    }

    #[test]
    fn config_builder() {
        let c = RunConfig::var4(Policy::Cvc).scale(1024);
        assert_eq!(c.scale_divisor, 1024);
        assert_eq!(c.policy, Policy::Cvc);
        assert!(!c.gpudirect);
        assert!(c.faults.is_none(), "no faults by default");
        assert_eq!(c.checkpoint_every_rounds, 0);

        let c = c
            .with_faults(FaultPlan::seeded(7).with_drop(0.05))
            .with_checkpoints(4);
        assert_eq!(c.faults.seed, 7);
        assert_eq!(c.checkpoint_every_rounds, 4);
    }
}
