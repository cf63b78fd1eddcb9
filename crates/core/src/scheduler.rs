//! The iterative FIFOMS matching algorithm (paper §III, Table 2).

use fifoms_fabric::FaultScoreboard;
use fifoms_types::{PortId, PortSet, Slot, SpanSample, SpanTimer, WorkCounts};
use rand::rngs::SmallRng;
use rand::Rng;

use crate::port::InputPort;

/// How an output breaks ties between requests with equal (smallest) time
/// stamps.
///
/// The paper specifies *random* selection; the alternatives exist as
/// ablation targets for the tie-break design decision.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum TieBreak {
    /// Uniformly random among tied requests (the paper's rule).
    #[default]
    Random,
    /// Deterministically the lowest input index.
    LowestInput,
    /// Round-robin: the first tied input at or after a rotating pointer
    /// that advances each slot.
    Rotating,
}

/// Scheduler options.
#[derive(Clone, Copy, Debug)]
pub struct FifomsConfig {
    /// Output tie-break rule.
    pub tie_break: TieBreak,
    /// Cap on iterative rounds per slot; `None` iterates to convergence
    /// (at most `N` rounds — each productive round reserves at least one
    /// output).
    pub max_rounds: Option<u32>,
    /// Ablation: when `true`, a free input requests only *one* output (the
    /// lowest-indexed free destination of its oldest HOL cell) instead of
    /// all destinations sharing the smallest stamp. This disables the
    /// one-shot multicast delivery that FIFOMS gets from the crossbar and
    /// degenerates the algorithm to unicast-style matching.
    pub single_request: bool,
    /// Ablation modelling the restricted-fanout multicast scheduler of the
    /// paper's reference \[15\] (Smiljanic, HPSR '02): cap the number of
    /// outputs one input may be granted per slot. `None` (the paper's
    /// FIFOMS) uses the crossbar's full multicast capability; small caps
    /// force extra fanout splitting and show why the restriction "is not
    /// able to fully utilize the multicast capability" (§I).
    pub max_grant_fanout: Option<usize>,
}

impl Default for FifomsConfig {
    fn default() -> FifomsConfig {
        FifomsConfig {
            tie_break: TieBreak::Random,
            max_rounds: None,
            single_request: false,
            max_grant_fanout: None,
        }
    }
}

/// Result of scheduling one slot.
///
/// # Examples
///
/// ```
/// use fifoms_core::{FifomsScheduler, InputPort, ScheduleOutcome};
/// use fifoms_types::{Packet, PacketId, PortId, PortSet, Slot};
/// use rand::{rngs::SmallRng, SeedableRng};
///
/// // inputs 0 and 1 both want output 2; input 0's packet is older
/// let mut ports: Vec<InputPort> = (0..4).map(|_| InputPort::new(4)).collect();
/// ports[0].admit(&Packet::new(
///     PacketId(1), Slot(1), PortId(0),
///     [1usize, 2].into_iter().collect(),
/// ));
/// ports[1].admit(&Packet::new(
///     PacketId(2), Slot(2), PortId(1),
///     [2usize, 3].into_iter().collect(),
/// ));
/// let mut out = ScheduleOutcome::empty(4);
/// let mut rng = SmallRng::seed_from_u64(7);
/// FifomsScheduler::paper().schedule_into(&ports, None, &mut rng, &mut out, None);
/// // input 0 drives outputs 1 and 2 at once; input 1 drives only
/// // output 3 and keeps its copy for output 2 (fanout splitting)
/// assert_eq!(out.grants[0], [1usize, 2].into_iter().collect::<PortSet>());
/// assert_eq!(out.grants[1], PortSet::singleton(PortId(3)));
/// assert_eq!(out.rounds, 1);
/// ```
#[derive(Clone, Debug)]
pub struct ScheduleOutcome {
    /// Rounds in which at least one new pair matched (Fig. 5 metric).
    pub rounds: u32,
    /// `grants[i]` = outputs granted to input `i` this slot. All granted
    /// address cells of an input share one time stamp and hence one data
    /// cell (§III-B: no accept step needed).
    ///
    /// The grant sets are the slot's crossbar setting: input `i` drives
    /// exactly the outputs in `grants[i]` (§IV-A's native multicast). They
    /// are pairwise disjoint, so no output has two drivers.
    pub grants: Vec<PortSet>,
    /// The call's matching work (zero without debug assertions): free
    /// inputs scanned per round, the last round included; candidate HOL
    /// cells read, quarantined ones included; requests sent.
    pub work: WorkCounts,
}

impl ScheduleOutcome {
    /// An idle outcome for an `n×n` switch, suitable as the reusable
    /// target of [`FifomsScheduler::schedule_into`].
    pub fn empty(n: usize) -> ScheduleOutcome {
        ScheduleOutcome {
            rounds: 0,
            grants: vec![PortSet::with_capacity(n); n],
            work: WorkCounts::default(),
        }
    }
}

/// The FIFOMS matching engine.
///
/// Stateless between slots except for the rotating tie-break pointer; the
/// queue state lives in [`InputPort`]s and randomness is supplied by the
/// caller, which keeps the scheduler deterministic under a seeded RNG.
///
/// Arbitration is word-parallel: free inputs and outputs are [`PortSet`]s,
/// an input finds its candidate head-of-line cells as its VOQ occupancy
/// mask intersected with the free outputs, and each output's requesters
/// form an input set. A round therefore touches only the HOL cells that
/// can still be served instead of rescanning all `N` VOQs per input.
///
/// # Examples
///
/// ```
/// use fifoms_core::{FifomsScheduler, InputPort};
/// use fifoms_types::{Packet, PacketId, PortId, Slot};
/// use rand::{rngs::SmallRng, SeedableRng};
///
/// // a 4x4 switch: four input ports, each with four VOQs
/// let mut ports: Vec<InputPort> = (0..4).map(|_| InputPort::new(4)).collect();
/// // input 0: a fanout-3 multicast arrived at slot 1
/// ports[0].admit(&Packet::new(
///     PacketId(1), Slot(1), PortId(0),
///     [0usize, 1, 3].into_iter().collect(),
/// ));
/// let out = FifomsScheduler::paper().schedule(&ports, &mut SmallRng::seed_from_u64(7));
/// // all three destinations granted in a single round
/// assert_eq!(out.rounds, 1);
/// assert_eq!(out.grants[0].len(), 3);
/// ```
#[derive(Clone, Debug)]
pub struct FifomsScheduler {
    config: FifomsConfig,
    rotate: usize,
    scratch: Scratch,
}

/// Port sets reused across slots so the steady-state matching loop
/// performs no heap allocation (verified by the alloc-audit harness). They
/// are sized for the switch on first use — above 128 ports their words
/// are allocated then, once — and hold no state between calls: every
/// `schedule_into` refills the free sets, and every round clears the
/// request sets it filled.
#[derive(Clone, Debug, Default)]
struct Scratch {
    /// Inputs not yet granted anything this slot.
    free_inputs: PortSet,
    /// Outputs not yet granted this slot.
    free_outputs: PortSet,
    /// One input's candidates: its non-empty VOQs toward free outputs.
    candidates: PortSet,
    /// Per input, this round's request: the candidate outputs whose HOL
    /// cells carry the input's smallest candidate stamp (empty when it has
    /// no candidate).
    request: Vec<PortSet>,
    /// Per input, that smallest stamp.
    stamp: Vec<Slot>,
    /// Outputs requested this round.
    requested: PortSet,
    /// Per output, the inputs requesting it this round.
    requesters: Vec<PortSet>,
    /// One output's eligible requesters tied at the smallest stamp.
    tied: PortSet,
}

impl Scratch {
    fn new(n: usize) -> Scratch {
        Scratch {
            free_inputs: PortSet::with_capacity(n),
            free_outputs: PortSet::with_capacity(n),
            candidates: PortSet::with_capacity(n),
            request: vec![PortSet::with_capacity(n); n],
            stamp: vec![Slot(0); n],
            requested: PortSet::with_capacity(n),
            requesters: vec![PortSet::with_capacity(n); n],
            tied: PortSet::with_capacity(n),
        }
    }
}

impl FifomsScheduler {
    /// Scheduler with the given options.
    pub fn new(config: FifomsConfig) -> FifomsScheduler {
        FifomsScheduler {
            config,
            rotate: 0,
            scratch: Scratch::default(),
        }
    }

    /// Scheduler with the paper's defaults.
    pub fn paper() -> FifomsScheduler {
        FifomsScheduler::new(FifomsConfig::default())
    }

    /// The active configuration.
    pub fn config(&self) -> FifomsConfig {
        self.config
    }

    /// The round-robin rotation cursor — the scheduler's only cross-slot
    /// mutable state (the scratch sets are refilled every call).
    pub fn rotate(&self) -> usize {
        self.rotate
    }

    /// Restore the rotation cursor from a checkpoint.
    pub fn restore_rotate(&mut self, rotate: usize) {
        self.rotate = rotate;
    }

    /// Compute the matching for one slot over the current queue state.
    ///
    /// Implements Table 2's do-while loop: request step (each free input
    /// requests with its smallest-stamp HOL address cells whose outputs
    /// are free), grant step (each free output grants the smallest stamp,
    /// ties broken per [`TieBreak`]), iterating until no new pair matches.
    pub fn schedule(&mut self, ports: &[InputPort], rng: &mut SmallRng) -> ScheduleOutcome {
        let mut out = ScheduleOutcome::empty(ports.len());
        self.schedule_into(ports, None, rng, &mut out, None);
        out
    }

    /// [`FifomsScheduler::schedule`] writing the matching into a
    /// caller-owned outcome instead of allocating a fresh one, so a switch
    /// can reuse one `ScheduleOutcome` (and this scheduler its scratch
    /// sets) for an allocation-free steady-state slot loop.
    ///
    /// With `avoid = Some((scoreboard, now))` quarantined egress paths are
    /// skipped: a HOL cell whose `(input, output)` path is quarantined
    /// neither participates in the smallest-stamp selection nor requests
    /// its output, so known dead paths stop wasting request/grant
    /// iterations. With `None` nothing is skipped, so the unfaulted path
    /// is bit-identical. Skipped cells stay queued; once the scoreboard's
    /// timed forgetting expires a mark, the path's HOL cell requests again
    /// (the re-probe).
    ///
    /// Under [`TieBreak::Random`] the RNG is drawn exactly once per granted
    /// output — `gen_range(0..tied)` over the eligible requesters tied at
    /// the smallest stamp, in ascending input order — even when a single
    /// requester is tied, so the draw sequence is a function of the
    /// matching alone.
    ///
    /// With `spans = Some(buf)`, appends one [`SpanSample`] per scheduling
    /// sub-phase (`voq_scan`, `request`, `grant`) covering this call; with
    /// `None` no clock is read. The RNG consumption is identical either
    /// way, so instrumented and plain runs stay bit-identical.
    pub fn schedule_into(
        &mut self,
        ports: &[InputPort],
        avoid: Option<(&FaultScoreboard, Slot)>,
        rng: &mut SmallRng,
        out: &mut ScheduleOutcome,
        spans: Option<&mut Vec<SpanSample>>,
    ) {
        let n = ports.len();
        debug_assert!(
            ports.iter().all(|p| p.voqs().outputs() == n),
            "square switch required: every input port must have N = {n} VOQs"
        );
        let timing = spans.is_some();
        let (mut voq_scan_ns, mut request_ns, mut grant_ns) = (0u64, 0u64, 0u64);

        out.rounds = 0;
        if cfg!(debug_assertions) {
            out.work = WorkCounts::default();
        }
        for g in &mut out.grants {
            g.clear();
        }
        out.grants.resize_with(n, || PortSet::with_capacity(n));

        let Self {
            config,
            rotate,
            scratch,
        } = self;
        if scratch.request.len() != n {
            *scratch = Scratch::new(n);
        }
        let Scratch {
            free_inputs,
            free_outputs,
            candidates,
            request,
            stamp,
            requested,
            requesters,
            tied,
        } = scratch;
        free_inputs.fill(n);
        free_outputs.fill(n);

        loop {
            if let Some(cap) = config.max_rounds {
                if out.rounds >= cap {
                    break;
                }
            }
            // ---- request step, first pass: VOQ scan ----
            // Each free input takes its non-empty VOQs toward free outputs
            // and keeps those whose HOL cell carries the smallest stamp.
            // Inputs granted in an earlier round are no longer free: their
            // other same-stamp HOL cells lost their outputs' arbitration
            // and may not request again (§III-B.1 case 2).
            let lap = timing.then(SpanTimer::start);
            for i in free_inputs.iter() {
                if cfg!(debug_assertions) {
                    out.work.visited += 1;
                }
                let (Some(port), Some(req), Some(min)) = (
                    ports.get(i.index()),
                    request.get_mut(i.index()),
                    stamp.get_mut(i.index()),
                ) else {
                    continue; // unreachable: free inputs are < n
                };
                let voqs = port.voqs();
                candidates.clear();
                candidates.union_with(voqs.heads());
                candidates.intersect_with(free_outputs);
                req.clear();
                let mut smallest: Option<Slot> = None;
                for o in candidates.iter() {
                    if cfg!(debug_assertions) {
                        out.work.examined += 1;
                    }
                    if avoid.is_some_and(|(sb, now)| sb.is_quarantined(i, o, now)) {
                        continue;
                    }
                    // Every candidate is a non-empty VOQ (the heads mask).
                    let Some(cell) = voqs.queue(o).hol() else {
                        continue;
                    };
                    match smallest {
                        Some(ts) if cell.time_stamp > ts => {}
                        Some(ts) if cell.time_stamp == ts => {
                            if !config.single_request {
                                req.insert(o);
                            }
                        }
                        // A new smallest stamp (ascending output order, so
                        // `single_request` keeps the lowest such output).
                        _ => {
                            smallest = Some(cell.time_stamp);
                            req.clear();
                            req.insert(o);
                        }
                    }
                }
                if let Some(ts) = smallest {
                    *min = ts;
                }
            }
            if let Some(t) = lap {
                voq_scan_ns += t.elapsed_ns();
            }

            // ---- request step, second pass: send requests ----
            let lap = timing.then(SpanTimer::start);
            requested.clear();
            for i in free_inputs.iter() {
                let Some(req) = request.get(i.index()) else {
                    continue;
                };
                for o in req.iter() {
                    if cfg!(debug_assertions) {
                        out.work.requests += 1;
                    }
                    if let Some(inputs) = requesters.get_mut(o.index()) {
                        inputs.insert(i);
                    }
                }
                requested.union_with(req);
            }
            if let Some(t) = lap {
                request_ns += t.elapsed_ns();
            }
            if requested.is_empty() {
                break;
            }

            // ---- grant step ----
            // Each requested output grants the smallest stamp among its
            // requesters. Inputs that hit the restricted-fanout cap this
            // slot are ineligible; the output falls back to the next-oldest
            // eligible requester (or stays idle).
            let lap = timing.then(SpanTimer::start);
            let mut matched = false;
            for o in requested.iter() {
                debug_assert!(free_outputs.contains(o), "only free outputs are requested");
                let Some(inputs) = requesters.get_mut(o.index()) else {
                    continue;
                };
                tied.clear();
                let mut smallest: Option<Slot> = None;
                for i in inputs.iter() {
                    let capped = |cap| out.grants.get(i.index()).is_none_or(|g| g.len() >= cap);
                    if config.max_grant_fanout.is_some_and(capped) {
                        continue;
                    }
                    let Some(&ts) = stamp.get(i.index()) else {
                        continue;
                    };
                    match smallest {
                        Some(min) if ts > min => {}
                        Some(min) if ts == min => {
                            tied.insert(i);
                        }
                        _ => {
                            smallest = Some(ts);
                            tied.clear();
                            tied.insert(i);
                        }
                    }
                }
                inputs.clear();
                let Some(winner) = Self::pick_winner(config, *rotate, tied, rng) else {
                    continue; // no eligible requester: the output stays free
                };
                let Some(granted) = out.grants.get_mut(winner.index()) else {
                    continue;
                };
                // Granting takes the output out of `free_outputs`, so no
                // later grant can give it a second driver.
                granted.insert(o);
                free_outputs.remove(o);
                free_inputs.remove(winner);
                matched = true;
            }
            if let Some(t) = lap {
                grant_ns += t.elapsed_ns();
            }
            if !matched {
                break;
            }
            out.rounds += 1;
        }
        *rotate = (*rotate + 1) % n.max(1);

        if let Some(spans) = spans {
            spans.push(SpanSample {
                name: "voq_scan",
                ns: voq_scan_ns,
            });
            spans.push(SpanSample {
                name: "request",
                ns: request_ns,
            });
            spans.push(SpanSample {
                name: "grant",
                ns: grant_ns,
            });
        }
    }

    /// Arbitration among the requesters of one output tied at the smallest
    /// stamp (and still under the fanout cap): pick one per the configured
    /// tie-break, or `None` when no requester is eligible.
    /// [`TieBreak::Random`] draws exactly one `gen_range(0..tied)` and takes
    /// that position in ascending input order.
    fn pick_winner(
        config: &FifomsConfig,
        rotate: usize,
        tied: &PortSet,
        rng: &mut SmallRng,
    ) -> Option<PortId> {
        if tied.is_empty() {
            return None;
        }
        match config.tie_break {
            TieBreak::Random => tied.iter().nth(rng.gen_range(0..tied.len())),
            TieBreak::LowestInput => tied.first(),
            TieBreak::Rotating => tied
                .iter()
                .find(|i| i.index() >= rotate)
                .or_else(|| tied.first()),
        }
    }
}

/// Test oracle: the paper's Table 2, transcribed literally.
///
/// Each round rescans all `N` VOQs of every free input twice — once for
/// its smallest eligible stamp, once to send requests — and collects
/// `(stamp, input)` request lists per output; each output then grants the
/// smallest stamp. No occupancy mask, no port sets, no reused buffers: the
/// only thing it shares with [`FifomsScheduler`] is the queue state it
/// reads. The fast path must agree with it call by call — grants, rounds
/// and every RNG draw.
#[cfg(test)]
pub(crate) mod oracle {
    use fifoms_fabric::FaultScoreboard;
    use fifoms_types::{PortId, PortSet, Slot, WorkCounts};
    use rand::rngs::SmallRng;
    use rand::Rng;

    use super::{FifomsConfig, InputPort, ScheduleOutcome, TieBreak};

    /// One slot of FIFOMS under `config`, with the rotating tie-break pointer
    /// at `rotate` and quarantined paths skipped per `avoid`.
    pub(crate) fn table2(
        config: &FifomsConfig,
        rotate: usize,
        ports: &[InputPort],
        avoid: Option<(&FaultScoreboard, Slot)>,
        rng: &mut SmallRng,
    ) -> ScheduleOutcome {
        let n = ports.len();
        let mut input_free = vec![true; n];
        let mut output_free = vec![true; n];
        let mut grants = vec![PortSet::new(); n];
        let mut rounds = 0u32;
        let fanout_cap = config.max_grant_fanout.unwrap_or(usize::MAX);
        // The HOL cell of VOQ (i, o), if it may request: output free, path live.
        let hol = |i: usize, o: usize, output_free: &[bool]| {
            let live = avoid
                .is_none_or(|(sb, now)| !sb.is_quarantined(PortId::new(i), PortId::new(o), now));
            let cell = ports[i].voqs().queue(PortId::new(o)).hol();
            cell.filter(|_| output_free[o] && live)
                .map(|c| c.time_stamp)
        };

        loop {
            if config.max_rounds.is_some_and(|cap| rounds >= cap) {
                break;
            }
            // Request step: every free input finds its smallest HOL stamp among
            // free outputs, then requests every such output.
            let mut requests: Vec<Vec<(Slot, usize)>> = vec![Vec::new(); n];
            for i in (0..n).filter(|&i| input_free[i]) {
                let smallest = (0..n).filter_map(|o| hol(i, o, &output_free)).min();
                let Some(smallest) = smallest else { continue };
                for (o, req) in requests.iter_mut().enumerate() {
                    if hol(i, o, &output_free) == Some(smallest) {
                        req.push((smallest, i));
                        if config.single_request {
                            break;
                        }
                    }
                }
            }
            if requests.iter().all(Vec::is_empty) {
                break;
            }

            // Grant step: every output grants the oldest eligible request,
            // breaking ties among the oldest per the configured rule.
            let mut matched = false;
            for (o, req) in requests.iter().enumerate() {
                let eligible = |&&(_, i): &&(Slot, usize)| grants[i].len() < fanout_cap;
                let Some(oldest) = req.iter().filter(eligible).map(|&(ts, _)| ts).min() else {
                    continue;
                };
                let tied: Vec<usize> = req
                    .iter()
                    .filter(eligible)
                    .filter(|&&(ts, _)| ts == oldest)
                    .map(|&(_, i)| i)
                    .collect();
                let winner = match config.tie_break {
                    TieBreak::Random => tied[rng.gen_range(0..tied.len())],
                    TieBreak::LowestInput => tied[0],
                    TieBreak::Rotating => *tied.iter().find(|&&i| i >= rotate).unwrap_or(&tied[0]),
                };
                output_free[o] = false;
                input_free[winner] = false;
                grants[winner].insert(PortId::new(o));
                matched = true;
            }
            if !matched {
                break;
            }
            rounds += 1;
        }
        ScheduleOutcome {
            rounds,
            grants,
            work: WorkCounts::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fifoms_types::{Packet, PacketId};
    use proptest::prelude::*;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(42)
    }

    /// The input driving output `o` in `out`'s crossbar setting. Panics if
    /// two inputs were granted `o`.
    fn driver_of(out: &ScheduleOutcome, o: PortId) -> Option<PortId> {
        let mut drivers = out.grants.iter().enumerate().filter(|(_, g)| g.contains(o));
        let driver = drivers.next().map(|(i, _)| PortId::new(i));
        assert!(drivers.next().is_none(), "output {o} granted to two inputs");
        driver
    }

    /// Crosspoints set: copies granted over all inputs.
    fn connections(out: &ScheduleOutcome) -> usize {
        out.grants.iter().map(PortSet::len).sum()
    }

    /// Whether no output is in two grant sets (one driver per output).
    fn pairwise_disjoint(grants: &[PortSet]) -> bool {
        let mut granted = PortSet::new();
        for g in grants {
            granted.union_with(g);
        }
        granted.len() == grants.iter().map(PortSet::len).sum::<usize>()
    }

    fn ports_with(n: usize, packets: &[(usize, u64, &[usize])]) -> Vec<InputPort> {
        // (input, arrival_slot, dests)
        let mut ports: Vec<InputPort> = (0..n).map(|_| InputPort::new(n)).collect();
        for (idx, &(input, arrival, dests)) in packets.iter().enumerate() {
            ports[input].admit(&Packet::new(
                PacketId(idx as u64),
                Slot(arrival),
                PortId::new(input),
                dests.iter().copied().collect(),
            ));
        }
        ports
    }

    #[test]
    fn idle_switch_schedules_nothing() {
        let ports = ports_with(4, &[]);
        let out = FifomsScheduler::paper().schedule(&ports, &mut rng());
        assert_eq!(connections(&out), 0);
        assert_eq!(out.rounds, 0);
    }

    #[test]
    fn multicast_served_in_one_round_when_outputs_free() {
        let ports = ports_with(4, &[(0, 1, &[0, 1, 3])]);
        let out = FifomsScheduler::paper().schedule(&ports, &mut rng());
        assert_eq!(out.rounds, 1);
        assert_eq!(out.grants[0], [0usize, 1, 3].into_iter().collect());
        assert_eq!(connections(&out), 3);
        assert_eq!(out.grants.iter().filter(|g| g.len() > 1).count(), 1);
    }

    #[test]
    fn older_packet_wins_contention() {
        // Inputs 0 and 1 both want output 2; input 1's packet is older.
        let ports = ports_with(4, &[(0, 5, &[2]), (1, 3, &[2])]);
        let out = FifomsScheduler::paper().schedule(&ports, &mut rng());
        assert_eq!(driver_of(&out, PortId(2)), Some(PortId(1)));
        // loser stays unmatched (no other destinations)
        assert!(out.grants[0].is_empty());
    }

    #[test]
    fn loser_matches_elsewhere_in_later_round() {
        // Output 0 contested: input 1 older. Input 0 also queues a younger
        // packet for output 1, which it wins in round 2.
        let ports = ports_with(4, &[(0, 5, &[0]), (0, 6, &[1]), (1, 3, &[0])]);
        let out = FifomsScheduler::paper().schedule(&ports, &mut rng());
        assert_eq!(driver_of(&out, PortId(0)), Some(PortId(1)));
        assert_eq!(driver_of(&out, PortId(1)), Some(PortId(0)));
        assert_eq!(out.rounds, 2);
    }

    #[test]
    fn fanout_splitting_grants_partial_set() {
        // Input 0's multicast wants {0,1}; output 1 is won by input 1's
        // older unicast. FIFOMS still sends input 0's copy to output 0 —
        // fanout splitting.
        let ports = ports_with(4, &[(0, 5, &[0, 1]), (1, 2, &[1])]);
        let out = FifomsScheduler::paper().schedule(&ports, &mut rng());
        assert_eq!(driver_of(&out, PortId(1)), Some(PortId(1)));
        assert_eq!(driver_of(&out, PortId(0)), Some(PortId(0)));
        assert_eq!(out.grants[0], PortSet::singleton(PortId(0)));
    }

    #[test]
    fn matched_input_stops_requesting() {
        // Input 0 has an old unicast to output 0 and a younger one to
        // output 1. Once the old one is granted, the younger must NOT be
        // scheduled this slot (one data cell per input per slot).
        let ports = ports_with(4, &[(0, 1, &[0]), (0, 2, &[1])]);
        let out = FifomsScheduler::paper().schedule(&ports, &mut rng());
        assert_eq!(out.grants[0], PortSet::singleton(PortId(0)));
        assert!(driver_of(&out, PortId(1)).is_none());
    }

    #[test]
    fn equal_stamp_cells_at_one_input_are_one_packet() {
        // Two inputs, both arrive at slot 3. Input 0: multicast {0,1};
        // input 1: multicast {1,2}. Output 1 is contested with equal
        // stamps; whoever loses keeps its copy for later.
        let ports = ports_with(4, &[(0, 3, &[0, 1]), (1, 3, &[1, 2])]);
        let out = FifomsScheduler::new(FifomsConfig {
            tie_break: TieBreak::LowestInput,
            ..FifomsConfig::default()
        })
        .schedule(&ports, &mut rng());
        // LowestInput: output 1 grants input 0
        assert_eq!(out.grants[0], [0usize, 1].into_iter().collect());
        assert_eq!(out.grants[1], PortSet::singleton(PortId(2)));
    }

    #[test]
    fn random_tie_break_hits_both_inputs() {
        let mut seen0 = false;
        let mut seen1 = false;
        for seed in 0..64 {
            let ports = ports_with(4, &[(0, 3, &[1]), (1, 3, &[1])]);
            let mut r = SmallRng::seed_from_u64(seed);
            let out = FifomsScheduler::paper().schedule(&ports, &mut r);
            match driver_of(&out, PortId(1)) {
                Some(PortId(0)) => seen0 = true,
                Some(PortId(1)) => seen1 = true,
                other => panic!("unexpected driver {other:?}"),
            }
        }
        assert!(seen0 && seen1, "random tie-break never alternated");
    }

    #[test]
    fn rotating_tie_break_prefers_pointer() {
        let mut sched = FifomsScheduler::new(FifomsConfig {
            tie_break: TieBreak::Rotating,
            ..FifomsConfig::default()
        });
        // First slot: pointer at 0 → input 0 wins the tie.
        let ports = ports_with(4, &[(0, 3, &[1]), (1, 3, &[1])]);
        let out = sched.schedule(&ports, &mut rng());
        assert_eq!(driver_of(&out, PortId(1)), Some(PortId(0)));
        // Second slot: pointer advanced to 1 → input 1 wins.
        let ports = ports_with(4, &[(0, 3, &[1]), (1, 3, &[1])]);
        let out = sched.schedule(&ports, &mut rng());
        assert_eq!(driver_of(&out, PortId(1)), Some(PortId(1)));
    }

    #[test]
    fn max_rounds_caps_iteration() {
        // A contention cascade that needs 3 rounds to fully match: all
        // three inputs first chase output 0 (their oldest cells), the two
        // losers chase output 1 next, and the final loser settles for
        // output 2 in round 3.
        let ports = ports_with(
            4,
            &[
                (0, 1, &[0]),
                (1, 2, &[0]),
                (1, 5, &[1]),
                (2, 3, &[0]),
                (2, 6, &[1]),
                (2, 7, &[2]),
            ],
        );
        let capped = FifomsScheduler::new(FifomsConfig {
            max_rounds: Some(1),
            tie_break: TieBreak::LowestInput,
            ..FifomsConfig::default()
        })
        .schedule(&ports, &mut rng());
        assert_eq!(capped.rounds, 1);
        assert_eq!(connections(&capped), 1);
        let full = FifomsScheduler::new(FifomsConfig {
            tie_break: TieBreak::LowestInput,
            ..FifomsConfig::default()
        })
        .schedule(&ports, &mut rng());
        assert_eq!(full.rounds, 3);
        assert_eq!(connections(&full), 3);
        assert_eq!(driver_of(&full, PortId(0)), Some(PortId(0)));
        assert_eq!(driver_of(&full, PortId(1)), Some(PortId(1)));
        assert_eq!(driver_of(&full, PortId(2)), Some(PortId(2)));
    }

    #[test]
    fn single_request_ablation_serialises_multicast() {
        let ports = ports_with(4, &[(0, 1, &[0, 1, 3])]);
        let out = FifomsScheduler::new(FifomsConfig {
            single_request: true,
            ..FifomsConfig::default()
        })
        .schedule(&ports, &mut rng());
        // only the lowest destination is requested and granted
        assert_eq!(out.grants[0], PortSet::singleton(PortId(0)));
    }

    #[test]
    fn restricted_fanout_caps_grants_per_slot() {
        // Fanout-3 multicast with a grant cap of 2: only two copies go out
        // this slot; the third address cell stays queued (extra splitting,
        // modelling reference [15]'s restriction).
        let ports = ports_with(4, &[(0, 1, &[0, 1, 3])]);
        let out = FifomsScheduler::new(FifomsConfig {
            max_grant_fanout: Some(2),
            tie_break: TieBreak::LowestInput,
            ..FifomsConfig::default()
        })
        .schedule(&ports, &mut rng());
        assert_eq!(out.grants[0].len(), 2);
        assert_eq!(connections(&out), 2);
    }

    #[test]
    fn restricted_fanout_frees_output_for_other_inputs() {
        // Input 0 (older) wants {0,1}, capped at 1; input 1 wants {1}.
        // Output 1 must fall back to input 1 rather than idle.
        let ports = ports_with(4, &[(0, 1, &[0, 1]), (1, 5, &[1])]);
        let out = FifomsScheduler::new(FifomsConfig {
            max_grant_fanout: Some(1),
            tie_break: TieBreak::LowestInput,
            ..FifomsConfig::default()
        })
        .schedule(&ports, &mut rng());
        assert_eq!(out.grants[0].len(), 1);
        assert_eq!(driver_of(&out, PortId(1)), Some(PortId(1)));
    }

    #[test]
    fn unrestricted_equals_none_cap() {
        let mk = |cap| {
            let ports = ports_with(4, &[(0, 1, &[0, 1, 2, 3])]);
            let out = FifomsScheduler::new(FifomsConfig {
                max_grant_fanout: cap,
                ..FifomsConfig::default()
            })
            .schedule(&ports, &mut rng());
            connections(&out)
        };
        assert_eq!(mk(None), 4);
        assert_eq!(mk(Some(4)), 4);
        assert_eq!(mk(Some(64)), 4);
    }

    #[test]
    fn convergence_bounded_by_n() {
        // Worst case: every input wants every output, staggered stamps.
        let packets: Vec<(usize, u64, &[usize])> = (0..8)
            .map(|i| (i, (i + 1) as u64, &[0usize, 1, 2, 3, 4, 5, 6, 7][..]))
            .collect();
        let ports = ports_with(8, &packets);
        let out = FifomsScheduler::paper().schedule(&ports, &mut rng());
        assert!(out.rounds <= 8, "rounds {} > N", out.rounds);
        // oldest packet (input 0) must receive the full grant
        assert_eq!(out.grants[0].len(), 8 - out.grants.iter().skip(1).map(PortSet::len).sum::<usize>());
    }

    #[test]
    fn empty_outcome_is_an_idle_crossbar() {
        let out = ScheduleOutcome::empty(4);
        assert_eq!(out.rounds, 0);
        assert_eq!(out.grants.len(), 4);
        assert_eq!(connections(&out), 0);
        assert!((0..4).all(|o| driver_of(&out, PortId::new(o)).is_none()));
    }

    #[test]
    fn unicast_permutation_connects_every_pair_in_one_round() {
        // Input i holds one unicast cell for output (i + 1) mod 4: nothing
        // contends, so round 1 sets all four crosspoints.
        let ports = ports_with(4, &[(0, 1, &[1]), (1, 2, &[2]), (2, 3, &[3]), (3, 4, &[0])]);
        let out = FifomsScheduler::paper().schedule(&ports, &mut rng());
        assert_eq!(out.rounds, 1);
        assert_eq!(connections(&out), 4);
        for i in 0..4 {
            assert_eq!(
                driver_of(&out, PortId::new((i + 1) % 4)),
                Some(PortId::new(i))
            );
        }
        assert!(
            out.grants.iter().all(|g| g.len() == 1),
            "no input drove two outputs"
        );
    }

    #[test]
    fn contended_outputs_each_get_exactly_one_driver() {
        // Every input holds a broadcast cell with the same stamp, so every
        // output is contested by every input. Whatever the random
        // tie-breaks pick, round 1 gives each output one driver and no
        // later round finds a free output.
        let all: &[usize] = &[0, 1, 2, 3, 4, 5, 6, 7];
        let packets: Vec<(usize, u64, &[usize])> = (0..8).map(|i| (i, 3, all)).collect();
        let ports = ports_with(8, &packets);
        for seed in 0..32 {
            let out = FifomsScheduler::paper().schedule(&ports, &mut SmallRng::seed_from_u64(seed));
            assert_eq!(out.rounds, 1);
            assert!(pairwise_disjoint(&out.grants));
            assert_eq!(connections(&out), 8);
            assert!((0..8).all(|o| driver_of(&out, PortId::new(o)).is_some()));
        }
    }

    #[test]
    fn schedule_into_clears_the_previous_slot() {
        // One outcome reused across calls: each call's grant sets replace
        // the last call's instead of adding to them.
        let mut sched = FifomsScheduler::paper();
        let mut out = ScheduleOutcome::empty(4);
        let busy = ports_with(4, &[(0, 1, &[0, 1, 3]), (1, 2, &[2])]);
        sched.schedule_into(&busy, None, &mut rng(), &mut out, None);
        assert_eq!(connections(&out), 4);
        sched.schedule_into(&ports_with(4, &[]), None, &mut rng(), &mut out, None);
        assert_eq!(out.rounds, 0);
        assert_eq!(connections(&out), 0);
        sched.schedule_into(&busy, None, &mut rng(), &mut out, None);
        let other = ports_with(4, &[(2, 1, &[0])]);
        sched.schedule_into(&other, None, &mut rng(), &mut out, None);
        assert_eq!(out.rounds, 1);
        assert_eq!(connections(&out), 1);
        assert_eq!(driver_of(&out, PortId(0)), Some(PortId(2)));
    }

    #[test]
    fn schedule_into_fits_the_outcome_to_the_switch() {
        // An outcome sized for another switch, holding a stale grant in its
        // last set, is cut or grown to exactly N grant sets.
        let ports = ports_with(4, &[(3, 1, &[0, 2])]);
        let mut sched = FifomsScheduler::paper();
        for size in [1, 4, 9, 200] {
            let mut out = ScheduleOutcome::empty(size);
            if let Some(stale) = out.grants.last_mut() {
                stale.insert(PortId::new(size - 1));
            }
            sched.schedule_into(&ports, None, &mut rng(), &mut out, None);
            assert_eq!(out.grants.len(), 4, "outcome sized {size}");
            assert_eq!(out.grants[3], [0usize, 2].into_iter().collect());
            assert_eq!(connections(&out), 2, "outcome sized {size}");
        }
    }

    #[test]
    fn scratch_follows_a_change_of_switch_size() {
        // One scheduler serving a 4-port, a 70-port and again a 4-port
        // switch resizes its scratch sets each time and schedules as a
        // fresh scheduler would.
        let config = FifomsConfig {
            tie_break: TieBreak::LowestInput,
            ..FifomsConfig::default()
        };
        let small = ports_with(4, &[(0, 1, &[0, 1]), (1, 1, &[1, 3])]);
        let large = ports_with(70, &[(0, 1, &[0, 69]), (65, 1, &[69, 3])]);
        let mut shared = FifomsScheduler::new(config);
        for (ports, winner, loser) in [(&small, 1, 1), (&large, 69, 65), (&small, 1, 1)] {
            let got = shared.schedule(ports, &mut rng());
            let want = FifomsScheduler::new(config).schedule(ports, &mut rng());
            assert_eq!(got.grants, want.grants, "N = {}", ports.len());
            assert_eq!(got.rounds, want.rounds, "N = {}", ports.len());
            // the tie on the shared output goes to input 0; the other
            // input keeps its uncontested output
            assert_eq!(driver_of(&got, PortId::new(winner)), Some(PortId(0)));
            assert_eq!(got.grants[loser], PortSet::singleton(PortId(3)));
        }
    }

    #[test]
    fn quarantined_path_yields_to_a_younger_live_cell() {
        // Input 0's oldest cell heads for output 1 over a quarantined path:
        // it neither sets the input's smallest stamp nor requests, so the
        // younger cell for output 2 is granted and output 1 goes to input 1.
        let ports = ports_with(4, &[(0, 1, &[1]), (0, 2, &[2]), (1, 5, &[1])]);
        let mut sb = FaultScoreboard::new(4, 100);
        sb.record_failure(PortId(0), PortId(1), Slot(9));
        let mut sched = FifomsScheduler::paper();
        let mut out = ScheduleOutcome::empty(4);
        sched.schedule_into(&ports, Some((&sb, Slot(10))), &mut rng(), &mut out, None);
        assert_eq!(out.grants[0], PortSet::singleton(PortId(2)));
        assert_eq!(driver_of(&out, PortId(1)), Some(PortId(1)));
        // Once the mark has expired the path is re-probed: the old cell
        // requests again and wins output 1, as without a scoreboard.
        sched.schedule_into(&ports, Some((&sb, Slot(109))), &mut rng(), &mut out, None);
        let plain = FifomsScheduler::paper().schedule(&ports, &mut rng());
        assert_eq!(out.grants, plain.grants);
        assert_eq!(out.grants[0], PortSet::singleton(PortId(1)));
    }

    #[test]
    fn random_tie_break_draws_once_per_granted_output() {
        // Three uncontested unicast cells: three granted outputs, each with
        // a single tied requester, so the RNG advances by exactly three
        // `gen_range(0..1)` draws. The deterministic tie-breaks draw none.
        let ports = ports_with(4, &[(0, 1, &[1]), (1, 2, &[2]), (2, 3, &[3])]);
        let mut r = rng();
        let out = FifomsScheduler::paper().schedule(&ports, &mut r);
        assert_eq!(connections(&out), 3);
        let mut want = rng();
        for _ in 0..3 {
            let _ = want.gen_range(0..1usize);
        }
        assert_eq!(r.state(), want.state());
        for tie_break in [TieBreak::LowestInput, TieBreak::Rotating] {
            let mut r = rng();
            FifomsScheduler::new(FifomsConfig {
                tie_break,
                ..FifomsConfig::default()
            })
            .schedule(&ports, &mut r);
            assert_eq!(r.state(), rng().state(), "{tie_break:?} drew randomness");
        }
    }

    #[test]
    fn rotating_cursor_advances_every_slot_and_wraps_at_n() {
        // The cursor moves on idle slots too, so it is a function of the
        // slot count alone.
        let mut sched = FifomsScheduler::new(FifomsConfig {
            tie_break: TieBreak::Rotating,
            ..FifomsConfig::default()
        });
        let idle = ports_with(3, &[]);
        let busy = ports_with(3, &[(0, 1, &[2]), (2, 1, &[2])]);
        let seen: Vec<usize> = (0..7)
            .map(|t| {
                let ports = if t % 2 == 0 { &idle } else { &busy };
                sched.schedule(ports, &mut rng());
                sched.rotate()
            })
            .collect();
        assert_eq!(seen, vec![1, 2, 0, 1, 2, 0, 1]);
    }

    #[test]
    fn zero_round_cap_grants_nothing() {
        let ports = ports_with(4, &[(0, 1, &[0, 1])]);
        let mut r = rng();
        let out = FifomsScheduler::new(FifomsConfig {
            max_rounds: Some(0),
            ..FifomsConfig::default()
        })
        .schedule(&ports, &mut r);
        assert_eq!(out.rounds, 0);
        assert_eq!(connections(&out), 0);
        assert_eq!(r.state(), rng().state(), "no arbitration, no draw");
    }

    #[test]
    fn fanout_cap_counts_only_this_slots_grants() {
        // The cap is checked against the reused outcome's grant sets, so
        // last slot's two grants must not count toward this slot's cap.
        let mut sched = FifomsScheduler::new(FifomsConfig {
            max_grant_fanout: Some(2),
            tie_break: TieBreak::LowestInput,
            ..FifomsConfig::default()
        });
        let mut out = ScheduleOutcome::empty(4);
        let first = ports_with(4, &[(0, 1, &[0, 1, 2])]);
        sched.schedule_into(&first, None, &mut rng(), &mut out, None);
        assert_eq!(out.grants[0], [0usize, 1].into_iter().collect());
        let second = ports_with(4, &[(0, 2, &[2, 3])]);
        sched.schedule_into(&second, None, &mut rng(), &mut out, None);
        assert_eq!(out.grants[0], [2usize, 3].into_iter().collect());
    }

    /// Switch sizes for the property tests: inside one word, past one
    /// word (still inline) and past the inline limit (heap-spilled sets).
    const SIZES: [usize; 3] = [6, 70, 200];

    /// Random queue states for the property tests: `N` drawn from
    /// [`SIZES`], up to five packets per input with stamps in `0..16` (so
    /// equal stamps across inputs are common) and fanout 1..=5.
    fn arb_state() -> impl Strategy<Value = Vec<InputPort>> {
        let max = SIZES[SIZES.len() - 1];
        (
            0..SIZES.len(),
            proptest::collection::vec(
                proptest::collection::vec(
                    (0u64..16, proptest::collection::btree_set(0..max, 1..6)),
                    0..6,
                ),
                max,
            ),
        )
            .prop_map(|(size, per_input)| {
                let n = SIZES[size];
                let mut id = 0u64;
                per_input
                    .into_iter()
                    .take(n)
                    .enumerate()
                    .map(|(i, mut pkts)| {
                        let mut port = InputPort::new(n);
                        // packets must be admitted in nondecreasing stamp order
                        pkts.sort_by_key(|&(ts, _)| ts);
                        let mut last = None;
                        for (ts, dests) in pkts {
                            // dedupe stamps within an input (one arrival per slot)
                            let ts = match last {
                                Some(prev) if ts <= prev => prev + 1,
                                _ => ts,
                            };
                            last = Some(ts);
                            id += 1;
                            port.admit(&Packet::new(
                                PacketId(id),
                                Slot(ts),
                                PortId::new(i),
                                dests.iter().map(|d| d % n).collect(),
                            ));
                        }
                        port
                    })
                    .collect()
            })
    }

    /// Every configuration the oracle diff covers: the three tie-breaks ×
    /// round caps {∞, 1, 2} × grant-fanout caps {∞, 1, 2} × single request.
    fn all_configs() -> Vec<FifomsConfig> {
        let mut configs = Vec::new();
        for tie_break in [TieBreak::Random, TieBreak::LowestInput, TieBreak::Rotating] {
            for max_rounds in [None, Some(1), Some(2)] {
                for max_grant_fanout in [None, Some(1), Some(2)] {
                    for single_request in [false, true] {
                        configs.push(FifomsConfig {
                            tie_break,
                            max_rounds,
                            single_request,
                            max_grant_fanout,
                        });
                    }
                }
            }
        }
        configs
    }

    /// The slot the scoreboard is consulted at.
    const NOW: Slot = Slot(10);

    /// A scoreboard quarantining about a third of the HOL paths in
    /// `ports` and holding an expired mark on a few more (window 4 slots
    /// at [`NOW`]: marks at slots 7..=9 are live, earlier ones expired).
    fn scoreboard_over(ports: &[InputPort], seed: u64) -> FaultScoreboard {
        let mut sb = FaultScoreboard::new(ports.len(), 4);
        let mut r = SmallRng::seed_from_u64(seed);
        for (i, port) in ports.iter().enumerate() {
            for (o, _) in port.voqs().hol_cells() {
                if r.gen_range(0..2u32) == 0 {
                    sb.record_failure(PortId::new(i), o, Slot(r.gen_range(2..10u64)));
                }
            }
        }
        sb
    }

    proptest! {
        /// The matching is legal (the grant sets are pairwise disjoint, so
        /// each output has one driver), every input's grant set shares one
        /// time stamp (single data cell), and the matching is maximal: no
        /// free input still has a HOL cell toward a free output.
        #[test]
        fn prop_schedule_sound_and_maximal(ports in arb_state(), seed in 0u64..64) {
            let mut r = SmallRng::seed_from_u64(seed);
            let out = FifomsScheduler::paper().schedule(&ports, &mut r);
            let mut granted = PortSet::new();
            for (i, g) in out.grants.iter().enumerate() {
                prop_assert!(!granted.intersects(g), "input {} granted a driven output", i);
                granted.union_with(g);
                // all granted cells share the same stamp = one packet
                let stamps: Vec<Slot> = g
                    .iter()
                    .map(|o| ports[i].voqs().queue(o).hol().unwrap().time_stamp)
                    .collect();
                prop_assert!(stamps.windows(2).all(|w| w[0] == w[1]));
            }
            // maximality
            let n = ports.len();
            let matched_inputs: Vec<bool> =
                (0..n).map(|i| !out.grants[i].is_empty()).collect();
            for (i, port) in ports.iter().enumerate() {
                if matched_inputs[i] {
                    continue;
                }
                for (o, _) in port.voqs().hol_cells() {
                    prop_assert!(
                        granted.contains(o),
                        "free input {i} had HOL cell to free output {o}"
                    );
                }
            }
            // rounds bounded by N
            prop_assert!(out.rounds as usize <= n);
        }

        /// The oldest HOL stamp present in the system always gets matched
        /// (the FIFO principle that makes FIFOMS starvation-free).
        #[test]
        fn prop_globally_oldest_cell_is_served(ports in arb_state(), seed in 0u64..32) {
            let mut r = SmallRng::seed_from_u64(seed);
            let out = FifomsScheduler::paper().schedule(&ports, &mut r);
            let oldest = ports
                .iter()
                .flat_map(|p| p.voqs().hol_cells().map(|(_, c)| c.time_stamp))
                .min();
            if let Some(oldest) = oldest {
                // some input whose HOL stamp equals the global minimum must
                // have been granted at least one output
                let served = ports.iter().enumerate().any(|(i, p)| {
                    !out.grants[i].is_empty()
                        && p.voqs().hol_cells().any(|(_, c)| c.time_stamp == oldest)
                });
                prop_assert!(served, "globally oldest stamp {oldest} unserved");
            }
        }

        /// The word-parallel fast path agrees with the Table 2 oracle call
        /// by call — grants, rounds and RNG state afterwards — for every
        /// configuration, with and without quarantined paths, and the
        /// oracle's grant sets are pairwise disjoint. One scheduler and one
        /// outcome serve every call of a case, so reused scratch must carry
        /// nothing over.
        #[test]
        fn prop_fast_path_matches_table2_oracle(ports in arb_state(), seed in 0u64..1_000) {
            let faulted = scoreboard_over(&ports, seed);
            prop_assert!(!faulted.is_empty() || ports.iter().all(|p| p.voqs().is_empty()));
            let mut out = ScheduleOutcome::empty(ports.len());
            for config in all_configs() {
                let mut sched = FifomsScheduler::new(config);
                sched.restore_rotate(seed as usize % ports.len());
                for avoid in [None, Some((&faulted, NOW))] {
                    let rotate = sched.rotate();
                    let mut rng = SmallRng::seed_from_u64(seed);
                    let mut oracle_rng = rng.clone();
                    sched.schedule_into(&ports, avoid, &mut rng, &mut out, None);
                    let want = oracle::table2(&config, rotate, &ports, avoid, &mut oracle_rng);
                    let case = format!("{config:?}, faulted {}", avoid.is_some());
                    prop_assert!(pairwise_disjoint(&want.grants), "oracle legality: {}", case);
                    prop_assert_eq!(&out.grants, &want.grants, "grants: {}", case);
                    prop_assert_eq!(out.rounds, want.rounds, "rounds: {}", case);
                    prop_assert_eq!(rng.state(), oracle_rng.state(), "rng: {}", case);
                }
            }
        }
    }
}
