//! The one check that a plan set may stand in for another.
//!
//! A [`Gate`] holds the plans currently trusted. [`Gate::admit`] proves a
//! candidate rewrite of them — re-verify, then provenance-equal: the
//! candidate's symbolic outputs (`schedule::eval::provenance`) against the
//! trusted plans', computed once, the first time anything asks — and
//! [`Gate::denotes`] proves the trusted plans against a [`Request`]'s own
//! definition of its collective. [`PassManager`](crate::PassManager) and
//! `exacoll verify` both call this and nothing else, so the sweep and the
//! manager cannot drift. Either proof costs O(steps), whatever the message
//! size.

use exacoll_core::schedule::eval::{provenance, provenance_compiled, EvalError};
use exacoll_core::schedule::provenance::{Arena, Divergence, Equivalence, Seg};
use exacoll_core::schedule::verify::{verify_compiled, ScheduleStats, VerifyError};
use exacoll_core::schedule::{compile, CompiledSchedule, Schedule};
use exacoll_core::Request;
use std::fmt;

/// Why a plan set was not admitted.
#[derive(Debug, Clone, PartialEq)]
pub enum Refusal {
    /// The candidate fails static verification.
    Verify(VerifyError),
    /// The trusted plans themselves cannot be evaluated — nothing can be
    /// compared against them.
    Baseline(EvalError),
    /// The candidate cannot be evaluated.
    Eval(EvalError),
    /// The candidate computes something else: the first rank and output
    /// byte range that differ, with both expressions.
    Diverged(Divergence),
}

impl fmt::Display for Refusal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Refusal::Verify(e) => write!(f, "re-verification failed: {e}"),
            Refusal::Baseline(e) => write!(f, "the plan being rewritten cannot be evaluated: {e}"),
            Refusal::Eval(e) => write!(f, "evaluation failed: {e}"),
            Refusal::Diverged(d) => write!(f, "computes a different function: {d}"),
        }
    }
}

impl std::error::Error for Refusal {}

/// A candidate [`Gate::admit`] accepted.
#[derive(Debug)]
pub struct Admitted {
    /// The candidate's verifier stats.
    pub stats: ScheduleStats,
    /// Whether it computes the same function expression for expression, or
    /// only up to the order of its reductions.
    pub equivalence: Equivalence,
    outputs: Vec<Vec<Seg>>,
}

/// The trusted plans and, once asked for, what they compute.
pub struct Gate {
    arena: Arena,
    plans: Vec<Schedule>,
    outputs: Option<Vec<Vec<Seg>>>,
}

impl Gate {
    /// A gate around `plans`, which the caller vouches for (a fresh lowering
    /// that passed `verify`).
    pub fn new(plans: Vec<Schedule>) -> Gate {
        Gate {
            arena: Arena::new(),
            plans,
            outputs: None,
        }
    }

    /// The trusted plans.
    pub fn plans(&self) -> &[Schedule] {
        &self.plans
    }

    /// Give the trusted plans back.
    pub fn into_plans(self) -> Vec<Schedule> {
        self.plans
    }

    /// The arena and what the trusted plans compute in it, walked on first
    /// use: a gate nothing is put to costs nothing.
    fn baseline(&mut self) -> Result<(&mut Arena, &[Vec<Seg>]), Refusal> {
        if self.outputs.is_none() {
            let out = provenance(&mut self.arena, &self.plans).map_err(Refusal::Baseline)?;
            self.outputs = Some(out);
        }
        let outputs = self.outputs.as_deref().expect("just computed");
        Ok((&mut self.arena, outputs))
    }

    /// Prove `candidate` verifies and computes what the trusted plans do.
    /// Both proofs walk one compile of each rank's plan.
    ///
    /// # Errors
    ///
    /// The [`Refusal`]; the gate is unchanged either way.
    pub fn admit(&mut self, candidate: &[Schedule]) -> Result<Admitted, Refusal> {
        let plans: Vec<CompiledSchedule> = candidate.iter().map(compile).collect();
        let stats = verify_compiled(candidate, &plans).map_err(Refusal::Verify)?;
        let (arena, want) = self.baseline()?;
        let outputs = provenance_compiled(arena, candidate, &plans).map_err(Refusal::Eval)?;
        let equivalence = arena
            .equivalent(want, &outputs)
            .map_err(Refusal::Diverged)?;
        Ok(Admitted {
            stats,
            equivalence,
            outputs,
        })
    }

    /// Trust `candidate` from here on; `admitted` is what [`Gate::admit`]
    /// returned for it.
    pub fn replace(&mut self, candidate: Vec<Schedule>, admitted: Admitted) {
        self.plans = candidate;
        self.outputs = Some(admitted.outputs);
    }

    /// Prove the trusted plans compute `request`'s collective as
    /// [`Request::denotation`] defines it.
    ///
    /// # Errors
    ///
    /// [`Refusal::Baseline`] or [`Refusal::Diverged`].
    pub fn denotes(&mut self, request: &Request) -> Result<Equivalence, Refusal> {
        let want = request.denotation(&mut self.arena);
        let (arena, got) = self.baseline()?;
        arena.equivalent(&want, got).map_err(Refusal::Diverged)
    }
}
