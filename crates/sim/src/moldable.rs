//! Moldable tasks: how running time scales with an allotment.
//!
//! The paper's conclusion names this the major extension: "consider
//! parallel tasks rather than only sequential ones … we are confident that
//! the algorithm presented in this paper (or its adaptation) would still
//! provide an improvement". On the platform side the whole of that
//! adaptation is the [`SpeedupModel`]: a [`crate::Scheduler`] gives each
//! started task a processor *count*, and the engine scales its running
//! time by the model in [`crate::SimConfig::speedup`]. A sequential task is
//! the allotment `q = 1`, so there is one engine, one trace and one
//! validator for both.
//!
//! Memory is charged exactly as in the sequential-task model (the paper
//! notes a parallel run would need extra workspace; modelling that extra
//! is orthogonal and left to the policy via inflated `n_i` if desired).

/// How running time scales with allotted processors.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub enum SpeedupModel {
    /// Perfect scaling: `t(q) = t / q`. Under it a unit allotment runs in
    /// exactly `t` (`t / 1` is bit-exact).
    #[default]
    Linear,
    /// Amdahl's law with the given serial fraction `f`:
    /// `t(q) = t · (f + (1 − f)/q)`.
    Amdahl {
        /// Serial fraction in `[0, 1]`; a run under anything else is
        /// refused with [`crate::DriveError::BadConfig`].
        serial_fraction: f64,
    },
}

impl SpeedupModel {
    /// Checks the model's parameters: a serial fraction outside `[0, 1]`
    /// (or NaN) is not a speedup model. Runs validate this once at entry
    /// and [`crate::validate::validate_trace`] once per trace, so
    /// [`SpeedupModel::time`] never has to.
    pub(crate) fn check(&self) -> Result<(), String> {
        match *self {
            SpeedupModel::Amdahl { serial_fraction } if !(0.0..=1.0).contains(&serial_fraction) => {
                Err(format!(
                    "Amdahl serial fraction {serial_fraction} is outside [0, 1]"
                ))
            }
            _ => Ok(()),
        }
    }

    /// Running time of a task of sequential time `t` on `q ≥ 1`
    /// processors. Both models are linear in `t`, so
    /// `time(t, q) = t · time(1, q)` — what makes a mid-run resize exact.
    pub fn time(&self, t: f64, q: usize) -> f64 {
        debug_assert!(q >= 1, "a task needs at least one processor");
        debug_assert!(self.check().is_ok(), "unchecked speedup model {self:?}");
        match *self {
            SpeedupModel::Linear => t / q as f64,
            SpeedupModel::Amdahl { serial_fraction } => {
                t * (serial_fraction + (1.0 - serial_fraction) / q as f64)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{InOrder, Once};
    use crate::{simulate, validate::validate_trace, DriveError, SimConfig};
    use memtree_tree::{NodeId, TaskSpec, TaskTree};

    #[test]
    fn speedup_models() {
        assert_eq!(SpeedupModel::Linear.time(8.0, 4), 2.0);
        let a = SpeedupModel::Amdahl {
            serial_fraction: 0.5,
        };
        assert_eq!(a.time(8.0, 1), 8.0);
        assert_eq!(a.time(8.0, 4), 8.0 * (0.5 + 0.125));
        // Monotone non-increasing in q.
        for q in 1..8 {
            assert!(a.time(8.0, q + 1) <= a.time(8.0, q));
        }
    }

    /// A trivial moldable policy: run the chain head on every processor.
    fn all_procs_chain(tree: &TaskTree) -> InOrder {
        // Chain postorder: leaf (id 9) up to root (id 0).
        InOrder::new(memtree_tree::traverse::postorder(tree), None, 1_000)
    }

    #[test]
    fn linear_chain_gets_full_speedup() {
        let tree = memtree_gen::shapes::chain(10, TaskSpec::new(0, 1, 4.0));
        let total = tree.total_time();
        let trace = simulate(&tree, SimConfig::new(4, 1_000), all_procs_chain(&tree)).unwrap();
        validate_trace(&tree, &trace).unwrap();
        assert!((trace.makespan - total / 4.0).abs() < 1e-9);
        assert!(trace.records.iter().all(|r| r.procs == 4));
        assert_eq!(trace.peak_busy, 4);
    }

    #[test]
    fn over_allotment_rejected() {
        let tree = TaskTree::from_parents(&[None], &[TaskSpec::default()]).unwrap();
        assert!(matches!(
            simulate(&tree, SimConfig::new(2, 10), Once(vec![(NodeId(0), 3)])),
            Err(DriveError::TooManyStarts { .. })
        ));
    }

    /// A serial fraction outside `[0, 1]` used to abort the process at the
    /// first launch; it is a configuration error at run entry and a
    /// validation error on a trace that claims it.
    #[test]
    fn bad_speedup_model_is_an_error_not_a_panic() {
        let tree = memtree_gen::shapes::chain(4, TaskSpec::new(0, 1, 2.0));
        let bad = SpeedupModel::Amdahl {
            serial_fraction: 1.5,
        };
        let nan = SpeedupModel::Amdahl {
            serial_fraction: f64::NAN,
        };
        for model in [bad, nan] {
            assert!(model.check().is_err());
            let cfg = SimConfig::new(2, 1_000).with_speedup(model);
            match simulate(&tree, cfg, all_procs_chain(&tree)) {
                Err(DriveError::BadConfig(msg)) => {
                    assert!(msg.contains("serial fraction"), "{msg}")
                }
                other => panic!("expected BadConfig, got {other:?}"),
            }
        }
        let mut trace = simulate(&tree, SimConfig::new(2, 1_000), all_procs_chain(&tree)).unwrap();
        validate_trace(&tree, &trace).unwrap();
        trace.speedup = bad;
        let err = validate_trace(&tree, &trace).unwrap_err();
        assert!(err.contains("serial fraction"), "{err}");
    }
}
