//! Joint (cache × allocation × policy × discipline × ladder) planning.
//!
//! The paper treats allocation and spin-down as separate knobs: pack files
//! under a load constraint, then pick a threshold. Its own trade-off curves
//! show the two interact — concentrating load on fewer disks deepens idle
//! gaps and makes aggressive policies pay, while spreading the hot tail
//! shortens queues at the cost of sleep opportunities. This module searches
//! the *quintuple* space instead of fixing the other dimensions:
//!
//! - **cache** — any [`CacheChoice`]: no cache, a flat front, or a
//!   two-tier DRAM→SSD hierarchy. A bigger cache absorbs reuse before it
//!   reaches the fleet, deepening idle gaps — which can flip the winning
//!   (policy, ladder) pair at equal hardware budget;
//! - **allocation** — the paper's allocators plus the load-shaping legs
//!   ([`Allocator::Concentrate`], [`Allocator::SpreadTail`]);
//! - **policy** — any [`PolicyChoice`], including the Irani–Shukla–Gupta
//!   multi-state lower-envelope strategies;
//! - **discipline** — any [`DisciplineChoice`] (elevator batching pairs
//!   naturally with concentrated wake batches);
//! - **ladder** — any [`LadderChoice`] (deep ladders pay on archival
//!   shards, two-state on the latency tail).
//!
//! A [`JointCandidate`] is the workspace's one description of a design
//! point, and [`JointPlanner`] is the one place a candidate becomes a
//! simulation: every candidate plans and evaluates against the **same**
//! [`DiskSpec`] (the planner's single source of truth, `base.sim.disk`),
//! with the ladder applied to that spec *before* the policy is built from
//! it. [`JointPlanner::search`] fans the grid's cells across threads with
//! [`parallel_map`] and returns the evaluated cells, their Pareto frontier
//! over (energy, p95 response), and a scalarised winner under a
//! configurable [`JointObjective`]. Brackets that already hold a plan (the
//! shootout's fixed-allocation rows, the figures' threshold series) call
//! [`JointPlanner::evaluate`] with it directly.

use serde::{Deserialize, Serialize};
use spindown_disk::{DiskSpec, LadderChoice};
use spindown_packing::Allocator;
use spindown_sim::discipline::DisciplineChoice;
use spindown_sim::engine::SimError;
use spindown_sim::hierarchy::CacheChoice;
use spindown_sim::metrics::MetricsMode;
use spindown_workload::{FaultPlan, FileCatalog, Trace};

use crate::planner::{Plan, PlanError, Planner, PlannerConfig};
use crate::policy::PolicyChoice;
use crate::sweep::parallel_map;

/// Scalarisation of the (energy, p95) trade-off: the winner minimises
/// `energy_j^energy_weight · p95_s^p95_weight`. The default (1, 1) is the
/// energy×p95 product; raising a weight leans the winner toward that axis.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct JointObjective {
    /// Exponent on total energy (joules). Must be ≥ 0.
    pub energy_weight: f64,
    /// Exponent on the p95 response time (seconds). Must be ≥ 0.
    pub p95_weight: f64,
}

impl JointObjective {
    /// The energy×p95 product (both weights 1).
    pub fn energy_p95() -> Self {
        JointObjective {
            energy_weight: 1.0,
            p95_weight: 1.0,
        }
    }

    /// Score a cell; lower is better. Non-finite inputs score `+∞` so a
    /// degenerate cell can never win.
    pub fn score(&self, energy_j: f64, p95_s: f64) -> f64 {
        let s = energy_j.powf(self.energy_weight) * p95_s.powf(self.p95_weight);
        if s.is_finite() {
            s
        } else {
            f64::INFINITY
        }
    }
}

impl Default for JointObjective {
    fn default() -> Self {
        Self::energy_p95()
    }
}

/// The fault regime the whole grid evaluates under. Faults are a property
/// of the *environment*, not of a candidate: every cell replays under the
/// same injected faults, so the planner's winner is the quintuple that
/// holds up best when disks crash, wakes fail and I/O flakes — the planner
/// pays for availability through the same (energy, p95) objective, since
/// retries and cold restarts inflate both.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub enum FaultChoice {
    /// Fault-free replay — the legacy bit-identical fast path.
    #[default]
    None,
    /// Inject this plan into every cell's replay.
    Inject(FaultPlan),
}

impl FaultChoice {
    /// Parse a fault spec; empty or `none` selects the fault-free regime,
    /// anything else must parse as a [`FaultPlan`].
    pub fn parse(spec: &str) -> Result<Self, String> {
        let trimmed = spec.trim();
        if trimmed.is_empty() || trimmed.eq_ignore_ascii_case("none") {
            return Ok(FaultChoice::None);
        }
        let plan = FaultPlan::parse(trimmed)?;
        if plan.is_none() {
            return Ok(FaultChoice::None);
        }
        Ok(FaultChoice::Inject(plan))
    }

    /// True for the fault-free regime.
    pub fn is_none(&self) -> bool {
        matches!(self, FaultChoice::None)
    }

    /// The plan to lower into a [`spindown_sim::config::SimConfig`].
    pub fn plan(&self) -> FaultPlan {
        match self {
            FaultChoice::None => FaultPlan::none(),
            FaultChoice::Inject(p) => p.clone(),
        }
    }

    /// Short human label (`none`, or the plan's compact spec).
    pub fn label(&self) -> String {
        match self {
            FaultChoice::None => "none".to_owned(),
            FaultChoice::Inject(p) => p.label(),
        }
    }
}

/// One quintuple of the joint search space.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct JointCandidate {
    /// The allocation strategy.
    pub allocator: Allocator,
    /// The spin-down policy.
    pub policy: PolicyChoice,
    /// The per-disk queue discipline.
    pub discipline: DisciplineChoice,
    /// The power-state ladder.
    pub ladder: LadderChoice,
    /// The cache hierarchy fronting the fleet.
    pub cache: CacheChoice,
}

impl JointCandidate {
    /// The paper's default quintuple: Pack_Disks + the fixed break-even
    /// threshold + FIFO queues + the two-state ladder, no cache. The joint
    /// bracket measures every other cell against this one.
    pub fn paper_default() -> Self {
        JointCandidate {
            allocator: Allocator::PackDisks,
            policy: PolicyChoice::break_even(),
            discipline: DisciplineChoice::Fifo,
            ladder: LadderChoice::TwoState,
            cache: CacheChoice::None,
        }
    }

    /// Fully-spelled label `alloc+policy+discipline+ladder[+cache]` (the
    /// joint bracket never elides the paper's four knobs — the quadruple is
    /// the point; only the cache-free default drops its suffix, keeping
    /// historical labels stable).
    pub fn label(&self) -> String {
        let mut label = format!(
            "{}+{}+{}+{}",
            self.allocator.label(),
            self.policy.label(),
            self.discipline.label(),
            self.ladder.label()
        );
        if self.cache != CacheChoice::None {
            label.push('+');
            label.push_str(&self.cache.label());
        }
        label
    }

    /// Short label like `break_even`, `fixed_1800s+lru:16`,
    /// `break_even+sjf_a30s` or `lower_env+3state`: the policy, with the
    /// discipline, ladder and cache spelled out only when they differ from
    /// the paper's FIFO / two-state / cache-free defaults. The allocator is
    /// left out — brackets that fix it name it in their own notes.
    pub fn short_label(&self) -> String {
        let mut label = self.policy.label();
        if self.discipline != DisciplineChoice::Fifo {
            label = format!("{label}+{}", self.discipline.label());
        }
        if self.ladder != LadderChoice::TwoState {
            label = format!("{label}+{}", self.ladder.label());
        }
        if self.cache != CacheChoice::None {
            label = format!("{label}+{}", self.cache.label());
        }
        label
    }
}

/// Configuration of the joint search: the shared base planner config (one
/// drive spec, one load constraint) and the grid along each dimension.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JointConfig {
    /// Base planner configuration. Its `sim.disk` is the single drive
    /// model every candidate plans and evaluates against; its allocator,
    /// discipline and policy fields are overridden per candidate.
    pub base: PlannerConfig,
    /// Allocation strategies to cross (≥ 1).
    pub allocators: Vec<Allocator>,
    /// Spin-down policies to cross (≥ 1).
    pub policies: Vec<PolicyChoice>,
    /// Queue disciplines to cross (≥ 1).
    pub disciplines: Vec<DisciplineChoice>,
    /// Power-state ladders to cross (≥ 1).
    pub ladders: Vec<LadderChoice>,
    /// Cache hierarchies to cross (≥ 1). Defaults to `[CacheChoice::None]`
    /// — the cache-free quadruple grid the earlier brackets ran.
    pub caches: Vec<CacheChoice>,
    /// The fault regime every cell replays under (not crossed: faults are
    /// the environment, not a knob). Defaults to fault-free.
    #[serde(default)]
    pub fault: FaultChoice,
    /// Scalarisation picking the winner among non-dominated cells.
    pub objective: JointObjective,
    /// Fleet-size floor every cell simulates (energy is only comparable
    /// across cells at equal fleet). The effective fleet is this floor
    /// raised to the largest allocation's slot count, so no candidate can
    /// overflow it; `None` means just the largest allocation's slots.
    pub fleet: Option<usize>,
}

impl JointConfig {
    /// The default search grid: the paper's allocator plus both
    /// load-shaping legs × the fixed break-even threshold and both
    /// lower-envelope multi-state policies × FIFO and elevator batching ×
    /// both ladders × no cache — 3·3·2·2·1 = 36 cells including the
    /// paper's default quintuple. Widen `caches` to bracket cache sizing
    /// as the fifth leg.
    pub fn default_grid() -> Self {
        JointConfig {
            base: PlannerConfig::default(),
            allocators: vec![
                Allocator::PackDisks,
                Allocator::Concentrate,
                Allocator::SpreadTail,
            ],
            policies: vec![
                PolicyChoice::break_even(),
                PolicyChoice::EnvelopeDescent,
                PolicyChoice::lower_envelope(),
            ],
            disciplines: vec![DisciplineChoice::Fifo, DisciplineChoice::ElevatorBatch],
            ladders: LadderChoice::all(),
            caches: vec![CacheChoice::None],
            fault: FaultChoice::None,
            objective: JointObjective::energy_p95(),
            fleet: None,
        }
    }

    /// The cross product of the five grids, allocation-outer / cache-inner
    /// (row-major, deterministic).
    pub fn candidates(&self) -> Vec<JointCandidate> {
        let mut out = Vec::with_capacity(
            self.allocators.len()
                * self.policies.len()
                * self.disciplines.len()
                * self.ladders.len()
                * self.caches.len(),
        );
        for &allocator in &self.allocators {
            for &policy in &self.policies {
                for &discipline in &self.disciplines {
                    for &ladder in &self.ladders {
                        for &cache in &self.caches {
                            out.push(JointCandidate {
                                allocator,
                                policy,
                                discipline,
                                ladder,
                                cache,
                            });
                        }
                    }
                }
            }
        }
        out
    }
}

impl Default for JointConfig {
    fn default() -> Self {
        Self::default_grid()
    }
}

/// One evaluated cell of the joint grid.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JointCell {
    /// The quadruple this cell ran.
    pub candidate: JointCandidate,
    /// Disks the allocation loaded.
    pub disks_used: usize,
    /// Total fleet energy over the replay, joules.
    pub energy_j: f64,
    /// Mean response time, seconds.
    pub mean_resp_s: f64,
    /// 95th-percentile response time, seconds.
    pub p95_s: f64,
    /// Fleet availability fraction when the grid ran under a fault regime
    /// (`None` on fault-free runs).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub availability: Option<f64>,
}

impl JointCell {
    /// True when `self` dominates `other`: no worse on both energy and
    /// p95, strictly better on at least one.
    pub fn dominates(&self, other: &JointCell) -> bool {
        self.energy_j <= other.energy_j
            && self.p95_s <= other.p95_s
            && (self.energy_j < other.energy_j || self.p95_s < other.p95_s)
    }
}

/// Errors from the joint search.
#[derive(Debug)]
pub enum JointError {
    /// A candidate allocation failed to plan.
    Plan(PlanError),
    /// A cell failed to simulate.
    Sim(SimError),
    /// The grid was empty along some dimension.
    EmptyGrid,
}

impl std::fmt::Display for JointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JointError::Plan(e) => write!(f, "joint candidate failed to plan: {e}"),
            JointError::Sim(e) => write!(f, "joint cell failed to simulate: {e}"),
            JointError::EmptyGrid => write!(f, "joint grid is empty along some dimension"),
        }
    }
}

impl std::error::Error for JointError {}

impl From<PlanError> for JointError {
    fn from(e: PlanError) -> Self {
        JointError::Plan(e)
    }
}

impl From<SimError> for JointError {
    fn from(e: SimError) -> Self {
        JointError::Sim(e)
    }
}

/// Indices of the mutually non-dominated cells, ascending (ties kept:
/// two cells with identical (energy, p95) both stay on the frontier).
/// Cells with a non-finite coordinate are excluded outright — NaN
/// compares false against everything, so without the guard a degenerate
/// cell would sit "undominated" on the frontier while [`JointObjective`]
/// rightly scores it `+∞`.
pub fn pareto_frontier(cells: &[JointCell]) -> Vec<usize> {
    (0..cells.len())
        .filter(|&i| cells[i].energy_j.is_finite() && cells[i].p95_s.is_finite())
        .filter(|&i| !cells.iter().any(|c| c.dominates(&cells[i])))
        .collect()
}

/// The outcome of a joint search: every evaluated cell, the Pareto
/// frontier over (energy, p95), and the scalarised winner.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JointOutcome {
    /// Every evaluated cell, in candidate order.
    pub cells: Vec<JointCell>,
    /// The fleet size every cell simulated. Energy — and any saving
    /// column derived from it — is only comparable to a baseline run at
    /// this exact fleet; [`JointPlanner::fleet_for`] may raise it above
    /// the configured floor when an allocation needs more slots.
    pub fleet: usize,
    /// Indices into `cells` of the non-dominated set, ascending.
    pub frontier: Vec<usize>,
    /// Index into `cells` of the cell minimising the objective (the first
    /// such cell on ties).
    pub winner: usize,
}

impl JointOutcome {
    /// Rank cells evaluated at `fleet`: frontier + winner under
    /// `objective`. `None` when `cells` is empty.
    pub fn from_cells(
        cells: Vec<JointCell>,
        objective: JointObjective,
        fleet: usize,
    ) -> Option<Self> {
        if cells.is_empty() {
            return None;
        }
        let frontier = pareto_frontier(&cells);
        let winner = (0..cells.len())
            .min_by(|&a, &b| {
                objective
                    .score(cells[a].energy_j, cells[a].p95_s)
                    .total_cmp(&objective.score(cells[b].energy_j, cells[b].p95_s))
            })
            .expect("non-empty");
        Some(JointOutcome {
            cells,
            fleet,
            frontier,
            winner,
        })
    }

    /// The winning cell.
    pub fn winner_cell(&self) -> &JointCell {
        &self.cells[self.winner]
    }

    /// The frontier cells, in index order.
    pub fn frontier_cells(&self) -> impl Iterator<Item = &JointCell> {
        self.frontier.iter().map(|&i| &self.cells[i])
    }

    /// The evaluated cell for a specific candidate, if it was in the grid.
    pub fn cell_for(&self, candidate: &JointCandidate) -> Option<&JointCell> {
        self.cells.iter().find(|c| c.candidate == *candidate)
    }
}

/// The joint planner: generates candidate quadruples, evaluates each cell
/// against a shared catalog/trace with one drive spec end to end, and
/// ranks the results.
#[derive(Debug, Clone)]
pub struct JointPlanner {
    cfg: JointConfig,
}

impl JointPlanner {
    /// Construct from a configuration.
    pub fn new(cfg: JointConfig) -> Self {
        JointPlanner { cfg }
    }

    /// The configuration.
    pub fn config(&self) -> &JointConfig {
        &self.cfg
    }

    /// The single drive spec every cell plans and evaluates against
    /// (before any per-candidate ladder is applied).
    pub fn disk(&self) -> &DiskSpec {
        self.cfg.base.disk()
    }

    /// All candidate quadruples, in deterministic row-major order.
    pub fn candidates(&self) -> Vec<JointCandidate> {
        self.cfg.candidates()
    }

    /// Plan each allocation strategy once at `rate`, fanned across threads
    /// (packing is policy-, discipline- and ladder-independent: none of
    /// those change the drive's capacity or transfer rate, so one plan
    /// serves a whole allocation row of the grid).
    pub fn plan_allocations(
        &self,
        catalog: &FileCatalog,
        rate: f64,
    ) -> Result<Vec<(Allocator, Plan)>, PlanError> {
        parallel_map(&self.cfg.allocators, |_, &allocator| {
            let mut cfg = self.cfg.base.clone();
            cfg.allocator = allocator;
            Planner::new(cfg)
                .plan(catalog, rate)
                .map(|p| (allocator, p))
        })
        .into_iter()
        .collect()
    }

    /// The fleet every cell simulates: the configured floor raised to the
    /// largest allocation's slot count (energy across cells is only
    /// comparable at equal fleet, and no allocation may overflow it).
    pub fn fleet_for(&self, plans: &[(Allocator, Plan)]) -> usize {
        let largest = plans.iter().map(|(_, p)| p.disk_slots()).max().unwrap_or(0);
        self.cfg.fleet.unwrap_or(0).max(largest)
    }

    /// The per-candidate planner — the one lowering of a
    /// [`JointCandidate`] into a simulation config. The base config keeps
    /// everything the grid does not cover (drive model, shards, completion
    /// log) and takes the candidate's allocator and discipline; the ladder
    /// is applied to the one drive spec *before* the policy choice is
    /// attached, so [`Planner::power_policy`] builds the policy from the
    /// exact spec the engine runs. Responses aggregate in
    /// [`MetricsMode::Histogram`]: a grid holds O(buckets) per cell. A
    /// non-`None` cache lowers to `sim.cache_hierarchy`, fronting the
    /// fleet before any disk sees the request; a non-`None` fault regime
    /// lowers to `sim.faults`, so every cell replays under it.
    fn planner_for(&self, candidate: &JointCandidate) -> Planner {
        let mut cfg = self.cfg.base.clone();
        cfg.allocator = candidate.allocator;
        cfg.sim.discipline = candidate.discipline;
        cfg.sim.metrics = MetricsMode::Histogram;
        cfg.sim.cache_hierarchy = candidate.cache.hierarchy();
        cfg.sim.faults = self.cfg.fault.plan();
        candidate.ladder.apply(&mut cfg.sim.disk);
        cfg.policy = Some(candidate.policy);
        Planner::new(cfg)
    }

    /// Evaluate one cell: simulate `plan` under the candidate's policy,
    /// discipline and ladder over `fleet` disks.
    pub fn evaluate(
        &self,
        candidate: &JointCandidate,
        plan: &Plan,
        catalog: &FileCatalog,
        trace: &Trace,
        fleet: usize,
    ) -> Result<JointCell, JointError> {
        let planner = self.planner_for(candidate);
        let report = planner.evaluate_with_fleet(plan, catalog, trace, fleet)?;
        Ok(JointCell {
            candidate: *candidate,
            disks_used: plan.disks_used(),
            energy_j: report.energy.total_joules(),
            mean_resp_s: report.responses.mean(),
            p95_s: report.response_p95(),
            availability: report.availability.as_ref().map(|a| a.availability),
        })
    }

    /// Run the full search: plan each allocation once, evaluate every
    /// candidate across threads, and rank the cells into frontier +
    /// scalarised winner. Cells come back in candidate order whatever the
    /// thread count, so frontier and winner indices are deterministic.
    pub fn search(
        &self,
        catalog: &FileCatalog,
        trace: &Trace,
        rate: f64,
    ) -> Result<JointOutcome, JointError> {
        let plans = self.plan_allocations(catalog, rate)?;
        let fleet = self.fleet_for(&plans);
        let cells = parallel_map(&self.candidates(), |_, cand| {
            let (_, plan) = plans
                .iter()
                .find(|(a, _)| *a == cand.allocator)
                .expect("every candidate's allocator was planned");
            self.evaluate(cand, plan, catalog, trace, fleet)
        })
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?;
        JointOutcome::from_cells(cells, self.cfg.objective, fleet).ok_or(JointError::EmptyGrid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(label: u32, energy_j: f64, p95_s: f64) -> JointCell {
        let mut candidate = JointCandidate::paper_default();
        candidate.policy = PolicyChoice::fixed(label as f64);
        JointCell {
            candidate,
            disks_used: 1,
            energy_j,
            mean_resp_s: p95_s / 2.0,
            p95_s,
            availability: None,
        }
    }

    #[test]
    fn frontier_keeps_only_non_dominated_cells() {
        let cells = vec![
            cell(0, 10.0, 1.0),
            cell(1, 5.0, 2.0),
            cell(2, 12.0, 1.5), // dominated by 0
            cell(3, 5.0, 2.5),  // dominated by 1
            cell(4, 2.0, 9.0),
        ];
        assert_eq!(pareto_frontier(&cells), vec![0, 1, 4]);
    }

    #[test]
    fn frontier_keeps_exact_ties() {
        let cells = vec![cell(0, 1.0, 1.0), cell(1, 1.0, 1.0)];
        assert_eq!(pareto_frontier(&cells), vec![0, 1]);
    }

    #[test]
    fn winner_minimises_the_product_objective() {
        let cells = vec![cell(0, 10.0, 1.0), cell(1, 4.0, 2.0), cell(2, 3.0, 5.0)];
        let out = JointOutcome::from_cells(cells, JointObjective::energy_p95(), 1).unwrap();
        assert_eq!(out.winner, 1); // 8 < 10 < 15
        assert!(out.frontier.contains(&out.winner));
    }

    #[test]
    fn objective_weights_lean_the_winner() {
        let cells = vec![cell(0, 10.0, 1.0), cell(1, 4.0, 2.0)];
        let latency_leaning = JointObjective {
            energy_weight: 0.1,
            p95_weight: 2.0,
        };
        let out = JointOutcome::from_cells(cells, latency_leaning, 1).unwrap();
        assert_eq!(out.winner, 0);
    }

    #[test]
    fn non_finite_scores_never_win() {
        let cells = vec![cell(0, f64::NAN, 1.0), cell(1, 4.0, 2.0)];
        let out = JointOutcome::from_cells(cells, JointObjective::energy_p95(), 1).unwrap();
        assert_eq!(out.winner, 1);
        // …and the NaN cell does not masquerade as Pareto-optimal either.
        assert_eq!(out.frontier, vec![1]);
    }

    #[test]
    fn empty_cells_yield_none() {
        assert!(JointOutcome::from_cells(vec![], JointObjective::energy_p95(), 1).is_none());
    }

    #[test]
    fn default_grid_covers_the_acceptance_dimensions() {
        let cfg = JointConfig::default_grid();
        assert!(cfg.allocators.len() >= 2);
        assert!(cfg.policies.len() >= 3);
        assert!(cfg.disciplines.len() >= 2);
        assert!(cfg.ladders.len() >= 2);
        assert!(!cfg.caches.is_empty());
        let cands = cfg.candidates();
        assert_eq!(
            cands.len(),
            cfg.allocators.len()
                * cfg.policies.len()
                * cfg.disciplines.len()
                * cfg.ladders.len()
                * cfg.caches.len()
        );
        // The paper's default quadruple is one of the cells, so the winner
        // can never be worse than it.
        assert!(cands.contains(&JointCandidate::paper_default()));
    }

    #[test]
    fn candidate_labels_spell_the_full_quadruple() {
        assert_eq!(
            JointCandidate::paper_default().label(),
            "pack_disks+break_even+fifo+2state"
        );
        let c = JointCandidate {
            allocator: Allocator::Concentrate,
            policy: PolicyChoice::lower_envelope(),
            discipline: DisciplineChoice::ElevatorBatch,
            ladder: LadderChoice::ThreeState,
            cache: CacheChoice::None,
        };
        assert_eq!(c.label(), "concentrate+lower_env+elevator+3state");
    }

    #[test]
    fn non_default_caches_extend_the_label() {
        let c = JointCandidate {
            cache: CacheChoice::parse("lru:16").unwrap(),
            ..JointCandidate::paper_default()
        };
        assert_eq!(c.label(), "pack_disks+break_even+fifo+2state+lru:16");
    }

    #[test]
    fn planner_for_applies_the_ladder_before_policy_construction() {
        let planner = JointPlanner::new(JointConfig::default_grid());
        let c = JointCandidate {
            allocator: Allocator::PackDisks,
            policy: PolicyChoice::EnvelopeDescent,
            discipline: DisciplineChoice::Fifo,
            ladder: LadderChoice::ThreeState,
            cache: CacheChoice::None,
        };
        let p = planner.planner_for(&c);
        // The single spec carries the three-level ladder…
        assert_eq!(p.disk().deepest_level(), 2);
        // …and the policy built from it sees all three levels: it
        // schedules a second descent step from level 1, which the
        // two-state envelope policy never does.
        let mut policy = p.power_policy();
        let step = policy.settled(0, 0, 0.0).expect("descends");
        assert!(policy.settled(0, 1, step.rest_s).is_some());
    }

    #[test]
    fn fault_choice_parses_lowers_and_labels() {
        assert!(FaultChoice::parse("").unwrap().is_none());
        assert!(FaultChoice::parse("none").unwrap().is_none());
        assert!(FaultChoice::parse("garbage!").is_err());
        let choice = FaultChoice::parse("wakefail:p=0.02 | mttr=120").unwrap();
        assert!(!choice.is_none());
        assert_eq!(choice.plan().wakefail_p, 0.02);
        assert!(choice.label().contains("wakefail"));
        // The regime lowers into every cell's sim config…
        let mut cfg = JointConfig::default_grid();
        cfg.fault = choice;
        let planner = JointPlanner::new(cfg);
        let p = planner.planner_for(&JointCandidate::paper_default());
        assert_eq!(p.config().sim.faults.wakefail_p, 0.02);
        // …and the default regime leaves the fault-free fast path intact.
        let p = JointPlanner::new(JointConfig::default_grid())
            .planner_for(&JointCandidate::paper_default());
        assert!(p.config().sim.faults.is_none());
    }

    #[test]
    fn faulted_search_reports_availability_on_every_cell() {
        let catalog = FileCatalog::paper_table1(200, 0);
        let trace = Trace::poisson(&catalog, 0.1, 300.0, 9);
        let mut cfg = JointConfig::default_grid();
        cfg.allocators = vec![Allocator::PackDisks];
        cfg.policies = vec![PolicyChoice::break_even()];
        cfg.disciplines = vec![DisciplineChoice::Fifo];
        cfg.ladders = vec![LadderChoice::TwoState];
        cfg.fault = FaultChoice::parse("transient:p=0.01 | wakefail:p=0.1").unwrap();
        let out = JointPlanner::new(cfg)
            .search(&catalog, &trace, 0.1)
            .unwrap();
        for c in &out.cells {
            let a = c.availability.expect("faulted cells carry availability");
            assert!((0.0..=1.0).contains(&a), "availability {a}");
        }
    }

    #[test]
    fn planner_for_lowers_the_cache_choice_into_the_sim_config() {
        let planner = JointPlanner::new(JointConfig::default_grid());
        let cached = JointCandidate {
            cache: CacheChoice::parse("lru:2+lru:16").unwrap(),
            ..JointCandidate::paper_default()
        };
        let p = planner.planner_for(&cached);
        let hierarchy = p.config().sim.cache_hierarchy.as_ref().expect("cache set");
        assert_eq!(hierarchy.tiers.len(), 2);
        // The cache-free default leaves the sim config untouched.
        let p = planner.planner_for(&JointCandidate::paper_default());
        assert!(p.config().sim.cache_hierarchy.is_none());
    }

    #[test]
    fn short_labels_spell_only_non_default_knobs() {
        let base = JointCandidate::paper_default();
        assert_eq!(base.short_label(), "break_even");
        let c = JointCandidate {
            allocator: Allocator::Concentrate,
            policy: PolicyChoice::lower_envelope(),
            discipline: DisciplineChoice::sjf(),
            ladder: LadderChoice::ThreeState,
            cache: CacheChoice::parse("lru:2+lru:16").unwrap(),
        };
        assert_eq!(c.short_label(), "lower_env+sjf_a30s+3state+lru:2+lru:16");
        let cached = JointCandidate {
            policy: PolicyChoice::fixed(1800.0),
            cache: CacheChoice::parse("lru:16").unwrap(),
            ..base
        };
        assert_eq!(cached.short_label(), "fixed_1800s+lru:16");
    }

    /// A two-file catalog and a single-row grid (Pack_Disks, FIFO,
    /// two-state, no cache) over `policies` at a two-disk fleet.
    fn two_file_grid(policies: Vec<PolicyChoice>) -> (FileCatalog, JointConfig) {
        use spindown_workload::MB;
        let catalog = FileCatalog::from_parts(vec![10 * MB, 20 * MB], vec![0.5, 0.5]);
        let mut cfg = JointConfig::default_grid();
        cfg.allocators = vec![Allocator::PackDisks];
        cfg.policies = policies;
        cfg.disciplines = vec![DisciplineChoice::Fifo];
        cfg.ladders = vec![LadderChoice::TwoState];
        cfg.fleet = Some(2);
        (catalog, cfg)
    }

    #[test]
    fn evaluate_preserves_the_callers_base_config() {
        use spindown_sim::complog::CompletionLogMode;
        let (catalog, mut cfg) = two_file_grid(vec![PolicyChoice::never()]);
        let trace = Trace::poisson(&catalog, 0.05, 600.0, 3);
        // A base the grid dimensions do not cover: non-default drive,
        // completion log on, sharded. All of it must survive the lowering.
        let drive = DiskSpec::archival_5400();
        cfg.base = PlannerConfig::default().with_disk(drive.clone());
        cfg.base.sim = cfg.base.sim.clone().with_completion_log().with_shards(2);
        let custom = JointPlanner::new(cfg);
        let lowered = custom.planner_for(&JointCandidate {
            policy: PolicyChoice::never(),
            ..JointCandidate::paper_default()
        });
        let sim = &lowered.config().sim;
        assert_eq!(sim.disk, drive);
        assert_eq!(sim.completion_log, CompletionLogMode::Memory);
        assert_eq!(sim.shards, 2);
        // Never-spin-down: the fleet idles at the archival drive's 5 W,
        // not the default drive's 9.3 W — the custom drive reaches the
        // engine, not just the config.
        let (_, default_cfg) = two_file_grid(vec![PolicyChoice::never()]);
        let stock = JointPlanner::new(default_cfg)
            .search(&catalog, &trace, 0.05)
            .unwrap();
        let archival = custom.search(&catalog, &trace, 0.05).unwrap();
        let (e_arch, e_stock) = (archival.cells[0].energy_j, stock.cells[0].energy_j);
        let ratio = drive.idle_power_w / DiskSpec::seagate_st3500630as().idle_power_w;
        assert!(
            e_arch < e_stock && (e_arch / e_stock - ratio).abs() < 0.05,
            "archival {e_arch} J vs stock {e_stock} J (idle-power ratio {ratio})"
        );
    }

    #[test]
    fn search_is_deterministic_and_never_is_the_energy_ceiling() {
        // Sparse arrivals: per-disk idle gaps far beyond the break-even
        // time, so every sleeping policy beats the never-spin-down floor.
        let (catalog, cfg) = two_file_grid(vec![
            PolicyChoice::break_even(),
            PolicyChoice::SkiRental { seed: 5 },
            PolicyChoice::Adaptive { alpha: 0.5 },
            PolicyChoice::never(),
        ]);
        let trace = Trace::poisson(&catalog, 0.01, 2000.0, 99);
        let planner = JointPlanner::new(cfg);
        let a = planner.search(&catalog, &trace, 0.01).unwrap();
        let b = planner.search(&catalog, &trace, 0.01).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.cells.len(), 4);
        // Grid cells stream their responses: constant memory per cell.
        for c in planner.candidates() {
            assert_eq!(
                planner.planner_for(&c).config().sim.metrics,
                MetricsMode::Histogram
            );
        }
        let never = &a.cells[3];
        for c in &a.cells[..3] {
            assert!(c.energy_j <= never.energy_j + 1e-6, "{c:?} vs {never:?}");
        }
    }

    #[test]
    fn three_state_cells_simulate_and_differ_from_two_state() {
        let (catalog, mut cfg) = two_file_grid(vec![
            PolicyChoice::break_even(),
            PolicyChoice::EnvelopeDescent,
        ]);
        cfg.ladders = LadderChoice::all();
        let trace = Trace::poisson(&catalog, 0.01, 4000.0, 17);
        let out = JointPlanner::new(cfg)
            .search(&catalog, &trace, 0.01)
            .unwrap();
        // Policy-outer, ladder-inner: be/2, be/3, envelope/2, envelope/3.
        assert_eq!(out.cells.len(), 4);
        for c in &out.cells {
            assert!(c.energy_j > 0.0);
        }
        // On the two-state ladder the envelope policy *is* the break-even
        // timeout (same single threshold), so those cells agree; the
        // three-state cells genuinely differ from their two-state peers.
        assert!((out.cells[0].energy_j - out.cells[2].energy_j).abs() < 1e-6);
        assert_ne!(out.cells[0].energy_j, out.cells[1].energy_j);
    }

    #[test]
    fn search_on_a_tiny_grid_is_deterministic_and_ranked() {
        let catalog = FileCatalog::paper_table1(300, 0);
        let trace = Trace::poisson(&catalog, 0.1, 300.0, 21);
        let mut cfg = JointConfig::default_grid();
        // Shrink the grid so the unit test stays fast: 2×2×1×2 = 8 cells.
        cfg.allocators = vec![Allocator::PackDisks, Allocator::Concentrate];
        cfg.policies = vec![PolicyChoice::break_even(), PolicyChoice::never()];
        cfg.disciplines = vec![DisciplineChoice::Fifo];
        let planner = JointPlanner::new(cfg);
        let a = planner.search(&catalog, &trace, 0.1).unwrap();
        let b = planner.search(&catalog, &trace, 0.1).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.cells.len(), 8);
        assert!(!a.frontier.is_empty());
        for c in &a.cells {
            assert!(c.energy_j > 0.0);
        }
        // Sleeping policies beat never-spin-down on energy at equal
        // allocation/discipline/ladder.
        let be = a
            .cell_for(&JointCandidate::paper_default())
            .expect("paper default in grid");
        let never = a
            .cell_for(&JointCandidate {
                policy: PolicyChoice::never(),
                ..JointCandidate::paper_default()
            })
            .unwrap();
        assert!(be.energy_j <= never.energy_j + 1e-9);
    }
}
