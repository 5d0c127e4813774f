//! The four workloads, each with an untraced run (end-to-end metrics) and
//! a traced run (per-layer metrics).
//!
//! Every run is a closed loop with one client: the next evaluation starts
//! only after the previous one returned. Input generation and
//! correctness checks run outside the timed calls. All in-process work is
//! single-threaded (no pool is passed anywhere), so the `sched` layer is
//! deliberately not measured.

use crate::inputs::{Inputs, SKIN};
use crate::report::{median, peak_rss_mb, quantile, HostProbe, Metrics, Tally, PER_LAYER};
use crate::trace::Tracer;
use polaroct_cluster::machine::{ClusterSpec, MachineSpec, Placement};
use polaroct_core::born::{push_integrals_to_atoms, BornAccumulators};
use polaroct_core::drivers::DriverConfig;
use polaroct_core::epol::ChargeBins;
use polaroct_core::gb::epol_from_raw_sum;
use polaroct_core::lists::ListEngine;
use polaroct_core::{
    run_naive, run_oct_mpi_ft, run_oct_mpi_proc_ft, run_serial_mol, ApproxParams, BornLists,
    DeltaEngine, EpolLists, FtConfig, GbSystem, Perturbation, RunOutcome, WorkDivision,
};
use polaroct_molecule::Molecule;
use polaroct_surface::surface_quadrature;
use std::time::Instant;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ProteinOneshot,
    DockingPoses,
    PerturbScan,
    Fig4Proc,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ProteinOneshot,
        Workload::DockingPoses,
        Workload::PerturbScan,
        Workload::Fig4Proc,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ProteinOneshot => "protein_oneshot",
            Workload::DockingPoses => "docking_poses",
            Workload::PerturbScan => "perturb_scan",
            Workload::Fig4Proc => "fig4_proc",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Count metrics come from the first evaluations of a run, which every
/// run reaches, so they repeat exactly for a seed.
const COUNT_EVALS: usize = 4;
/// `perturb_scan` takes its delta counts from this many first queries.
const COUNT_QUERIES: usize = 16;
/// Accuracy-panel molecules (and docking poses) compared against
/// `run_naive`, outside the timed loop.
const ERR_MOLECULES: usize = 1;
const ERR_POSES: usize = 6;
/// Accuracy gate against the exact reference.
const MAX_ERR_PCT: f64 = 1.0;
/// `perturb_scan` queries re-checked against a fresh `ListEngine`.
const CHECKED_QUERIES: [usize; 2] = [0, 1];
/// `fig4_proc` evaluations re-checked against the in-process transport.
const CHECKED_PROC_EVALS: [usize; 4] = [0, 1, 2, 3];
/// Set-up repetitions (untraced / traced); `setup_s` is their median.
const DOCKING_SETUPS: [usize; 2] = [15, 3];
const PERTURB_SETUPS: [usize; 2] = [7, 1];
/// Repetitions of the one-shot workloads' set-up, `GbSystem::prepare` on
/// the run's first molecule (untraced runs only).
const PREPARE_SETUPS: usize = 15;
/// Ranks of `fig4_proc`: rank 0 here plus one re-exec'd worker.
const PROC_RANKS: usize = 2;
/// Host-probe time (ms) of the reference host the time metrics are
/// scaled to.
const REF_CALIB_MS: f64 = 0.17;

pub struct Run {
    workload: Workload,
    inputs: Inputs,
    seconds: f64,
    pub tracer: Option<Tracer>,
    pub tally: Tally,
    pub metrics: Metrics,
    approx: ApproxParams,
    cfg: DriverConfig,
    /// Timed latencies (s) of successful evaluations, and the wall time of
    /// all timed calls (failed ones included).
    lat: Vec<f64>,
    timed: f64,
    /// Traced run: (traced, untraced twin, traced ran first) latencies of
    /// the same input, for the tracing overhead.
    twins: Vec<(f64, f64, bool)>,
    /// Set-up repetition times (s); `setup_s` is their median.
    setup: Vec<f64>,
    probe: HostProbe,
    /// `lat`, `timed` and `setup`, host-normalised one by one.
    norm_lat: Vec<f64>,
    norm_timed: f64,
    norm_setup: Vec<f64>,
}

impl Run {
    pub fn new(workload: Workload, inputs: Inputs, seconds: f64, traced: bool) -> Run {
        Run {
            workload,
            inputs,
            seconds,
            tracer: traced.then(Tracer::default),
            tally: Tally::default(),
            metrics: Metrics::new(),
            approx: ApproxParams::default(),
            cfg: DriverConfig::default(),
            lat: Vec::new(),
            timed: 0.0,
            twins: Vec::new(),
            setup: Vec::new(),
            // `fig4_proc` runs on as many CPUs as it has ranks.
            probe: HostProbe::new(if workload == Workload::Fig4Proc {
                PROC_RANKS
            } else {
                1
            }),
            norm_lat: Vec::new(),
            norm_timed: 0.0,
            norm_setup: Vec::new(),
        }
    }

    pub fn execute(&mut self) {
        self.probe.sample();
        if self.tracer.is_some() {
            for &(name, _) in PER_LAYER {
                self.metrics.insert(name, 0.0);
            }
        }
        match self.workload {
            Workload::ProteinOneshot => self.protein_oneshot(),
            Workload::DockingPoses => self.docking_poses(),
            Workload::PerturbScan => self.perturb_scan(),
            Workload::Fig4Proc => self.fig4_proc(),
        }
        self.probe.sample();
        let calib = self.probe.calib_ms();
        let wait = self.probe.wait_share();
        if wait.is_none() {
            self.tally.fail(
                "cannot read /proc/thread-self/schedstat, so the host probe's CPU wait was not taken out",
            );
        }
        let n = self.lat.len();
        let per_s = if self.timed > 0.0 {
            n as f64 / self.timed
        } else {
            0.0
        };
        let norm_per_s = if self.norm_timed > 0.0 {
            n as f64 / self.norm_timed
        } else {
            0.0
        };
        eprintln!(
            "[perfbench] {}: {n} evaluations ok of {}; raw p50 {:.3} ms, p90 {} ms, {per_s:.4} evals/s, setup {:.6} s; host.calib_ms {calib:.4}, probe wait {:.3}%",
            self.workload.name(),
            self.tally.attempted,
            median(&self.lat) * 1e3,
            // The p90 has ten samples beyond it only from 100 samples on.
            if n >= 100 { format!("{:.3}", quantile(&self.lat, 0.9) * 1e3) } else { "n/a".into() },
            median(&self.setup),
            wait.unwrap_or(f64::NAN) * 100.0,
        );
        if self.tracer.is_some() {
            self.metrics.insert("host.calib_ms", calib);
            self.metrics
                .insert("trace.faults", self.tally.trace_faults as f64);
            // Geometric mean of the median traced/untraced ratio within each
            // order, so a cost paid by whichever call runs first cancels.
            let ratio = |first: bool| {
                median(
                    &self
                        .twins
                        .iter()
                        .filter(|t| t.2 == first)
                        .map(|t| t.0 / t.1)
                        .collect::<Vec<_>>(),
                )
            };
            self.metrics.insert(
                "trace.overhead_pct",
                ((ratio(true) * ratio(false)).sqrt() - 1.0) * 100.0,
            );
        } else {
            self.metrics
                .insert("latency_ms_p50", median(&self.norm_lat) * 1e3);
            self.metrics.insert("evals_per_s", norm_per_s);
            self.metrics.insert("setup_s", median(&self.norm_setup));
        }
    }

    /// Closed loop: `step(i)` for i = 0, 1, ... until `seconds` of wall
    /// time have passed and at least `min` steps have run.
    fn closed_loop(&mut self, min: usize, mut step: impl FnMut(&mut Run, usize)) {
        let t0 = Instant::now();
        let mut i = 0;
        while i < min || t0.elapsed().as_secs_f64() < self.seconds {
            self.tally.attempted += 1;
            self.bracketed(|run| step(run, i));
            i += 1;
        }
    }

    /// Run `f` between two host probes and add host-normalised copies of
    /// the raw times it recorded: each is scaled by `REF_CALIB_MS` over
    /// the mean of the probe before and the probe after it.
    fn bracketed<T>(&mut self, f: impl FnOnce(&mut Run) -> T) -> T {
        let before = self.probe.last();
        let (lat, setup, timed) = (self.lat.len(), self.setup.len(), self.timed);
        let out = f(self);
        let scale = REF_CALIB_MS / (0.5 * (before + self.probe.sample()));
        self.norm_lat
            .extend(self.lat[lat..].iter().map(|t| t * scale));
        self.norm_setup
            .extend(self.setup[setup..].iter().map(|t| t * scale));
        self.norm_timed += (self.timed - timed) * scale;
        out
    }

    /// Record one timed call's outcome.
    fn timed_result(&mut self, dt: f64, ok: Result<(), String>) {
        self.timed += dt;
        match ok {
            Ok(()) => self.lat.push(dt),
            Err(why) => self.tally.fail(&why),
        }
    }

    /// Relative error (%) of `energy` against `run_naive` on `mol`;
    /// fails the run above [`MAX_ERR_PCT`].
    fn err_vs_naive(&mut self, mol: &Molecule, energy: f64) -> f64 {
        let sys = GbSystem::prepare(mol, &self.approx);
        match run_naive(&sys, &self.approx, &self.cfg) {
            Ok(exact) => {
                let err = ((energy - exact.energy_kcal) / exact.energy_kcal).abs() * 100.0;
                if err.is_nan() || err > MAX_ERR_PCT {
                    self.tally.fail(&format!(
                        "{}: error {err}% vs run_naive exceeds {MAX_ERR_PCT}%",
                        mol.name
                    ));
                }
                err
            }
            Err(e) => {
                self.tally
                    .fail(&format!("{}: run_naive failed: {e}", mol.name));
                f64::NAN
            }
        }
    }

    /// `err_pct` over accuracy-panel molecules, each evaluated by the
    /// workload's own driver (`energy`) outside the timed loop.
    fn panel_err(
        &mut self,
        mols: &[Molecule],
        energy: impl Fn(&Molecule) -> Result<f64, String>,
    ) -> Vec<f64> {
        let mut errs = Vec::new();
        for mol in mols {
            match energy(mol) {
                Ok(e) if e.is_finite() => errs.push(self.err_vs_naive(mol, e)),
                Ok(e) => self
                    .tally
                    .fail(&format!("{}: non-finite panel energy {e}", mol.name)),
                Err(why) => self.tally.fail(&format!("{}: {why}", mol.name)),
            }
        }
        errs
    }

    /// `setup_s` of the one-shot workloads, whose drivers keep no state
    /// between calls: the structure build each driver starts with
    /// (`GbSystem::prepare`: surface quadrature, both octrees and the
    /// arenas) on the run's first molecule, repeated. Repeats must build
    /// the same surface bit for bit. The build runs on one CPU, on
    /// `fig4_proc` too, so it is scaled by one-CPU probe points.
    fn prepare_setup(&mut self, mol: &Molecule) {
        let cpus = self.probe.set_cpus(1);
        self.probe.sample();
        let mut first: Option<Vec<u64>> = None;
        for rep in 0..PREPARE_SETUPS {
            let sys = self.bracketed(|run| {
                let t = Instant::now();
                let sys = GbSystem::prepare(mol, &run.approx);
                run.setup.push(t.elapsed().as_secs_f64());
                sys
            });
            let bits: Vec<u64> = sys.q_weight.iter().map(|w| w.to_bits()).collect();
            if first.as_ref().is_some_and(|f| *f != bits) {
                self.tally.fail(&format!(
                    "{}: set-up rep {rep} built a different surface",
                    mol.name
                ));
            }
            first.get_or_insert(bits);
        }
        self.probe.set_cpus(cpus);
        self.probe.sample();
    }

    fn finish_untraced(&mut self, rss: f64, errs: &[f64]) {
        self.metrics.insert("peak_rss_mb", rss);
        self.metrics.insert(
            "err_pct",
            errs.iter().sum::<f64>() / errs.len().max(1) as f64,
        );
    }

    // ---------------------------------------------------------------
    // protein_oneshot: run_serial_mol on a fresh ~8k-atom protein.
    // ---------------------------------------------------------------

    fn protein_oneshot(&mut self) {
        if self.tracer.is_some() {
            let mut counts = Vec::new();
            self.closed_loop(COUNT_EVALS, |run, i| {
                let mol = run.inputs.oneshot(i);
                if let Some((_, c)) = run.checked_decomposition("eval", i, &mol) {
                    counts.push(c);
                }
            });
            let tr = self.tracer.as_ref().expect("traced run");
            layer_metrics(tr, "eval", &counts, &mut self.metrics);
            return;
        }
        self.prepare_setup(&self.inputs.oneshot(0));
        self.closed_loop(COUNT_EVALS, |run, i| {
            let mol = run.inputs.oneshot(i);
            let t = Instant::now();
            let r = run_serial_mol(&mol, &run.approx, &run.cfg);
            let dt = t.elapsed().as_secs_f64();
            let ok = match r {
                Ok(r) if r.energy_kcal.is_finite() => Ok(()),
                Ok(r) => Err(format!("{}: non-finite energy {}", mol.name, r.energy_kcal)),
                Err(e) => Err(format!("{}: {e}", mol.name)),
            };
            run.timed_result(dt, ok);
        });
        let rss = peak_rss_mb();
        let panel: Vec<Molecule> = (0..ERR_MOLECULES)
            .map(|i| self.inputs.panel().oneshot(i))
            .collect();
        let (approx, cfg) = (self.approx, self.cfg);
        let errs = self.panel_err(&panel, |m| {
            run_serial_mol(m, &approx, &cfg)
                .map(|r| r.energy_kcal)
                .map_err(|e| e.to_string())
        });
        self.finish_untraced(rss, &errs);
    }

    /// The traced one-shot: `run_serial_mol` decomposed into its public
    /// calls, one span each, under a root span; alternating with it (to
    /// cancel order effects), the untraced `run_serial_mol` on the same
    /// molecule. Any bit difference between the two is a trace fault.
    fn checked_decomposition(
        &mut self,
        kind: &'static str,
        id: usize,
        mol: &Molecule,
    ) -> Option<(f64, LayerCounts)> {
        let (approx, cfg) = (self.approx, self.cfg);
        let mut plain_run = || {
            let t = Instant::now();
            let r = run_serial_mol(mol, &approx, &cfg);
            (r, t.elapsed().as_secs_f64())
        };
        let traced_first = id.is_multiple_of(2);
        let early = (!traced_first).then(&mut plain_run);
        let tr = self.tracer.as_mut().expect("traced run");
        let d = tr.root(kind, id as u64, |tr| decomposed(tr, mol, &approx));
        let traced_dt = tr.last_root_dur();
        let (r, plain_dt) = early.unwrap_or_else(plain_run);
        let r = match r {
            Ok(r) if r.energy_kcal.is_finite() => r,
            Ok(r) => {
                self.tally.fail(&format!(
                    "{}: non-finite energy {}",
                    mol.name, r.energy_kcal
                ));
                return None;
            }
            Err(e) => {
                self.tally.fail(&format!("{}: {e}", mol.name));
                return None;
            }
        };
        let same_radii = r.born_radii.len() == d.born_radii.len()
            && r.born_radii
                .iter()
                .zip(&d.born_radii)
                .all(|(a, b)| a.to_bits() == b.to_bits());
        if r.energy_kcal.to_bits() != d.energy.to_bits() || !same_radii {
            self.tally.trace_fault(&format!(
                "{}: decomposition {} != run_serial_mol {} (radii equal: {same_radii})",
                mol.name, d.energy, r.energy_kcal
            ));
        }
        if kind == "eval" {
            self.timed += traced_dt;
            self.lat.push(traced_dt);
            self.twins.push((traced_dt, plain_dt, traced_first));
        }
        Some((d.energy, d.counts))
    }

    // ---------------------------------------------------------------
    // docking_poses: one receptor, one ligand, a new pose per evaluation.
    // ---------------------------------------------------------------

    fn docking_poses(&mut self) {
        let receptor = self.inputs.receptor();
        let ligand = self.inputs.ligand();
        let traced = self.tracer.is_some();
        let reps = DOCKING_SETUPS[traced as usize];

        // Set-up: the separated partners' energies, the reference every
        // pose's binding energy is taken against.
        let mut partner_bits: Option<(u64, u64)> = None;
        for rep in 0..reps {
            let energies = self.bracketed(|run| {
                if traced {
                    let a = run.checked_decomposition("setup", 2 * rep, &receptor);
                    let b = run.checked_decomposition("setup", 2 * rep + 1, &ligand);
                    return a.zip(b).map(|(a, b)| (a.0, b.0));
                }
                let t = Instant::now();
                let a = run_serial_mol(&receptor, &run.approx, &run.cfg);
                let b = run_serial_mol(&ligand, &run.approx, &run.cfg);
                run.setup.push(t.elapsed().as_secs_f64());
                match (a, b) {
                    (Ok(a), Ok(b)) => Some((a.energy_kcal, b.energy_kcal)),
                    (a, b) => {
                        run.tally.fail(&format!(
                            "docking set-up failed: {:?} {:?}",
                            a.err(),
                            b.err()
                        ));
                        None
                    }
                }
            });
            let Some((ea, eb)) = energies else { continue };
            let bits = (ea.to_bits(), eb.to_bits());
            if !(ea.is_finite() && eb.is_finite()) || partner_bits.is_some_and(|p| p != bits) {
                self.tally.fail(&format!("docking set-up rep {rep}: partner energies {ea} {eb} not finite or not repeatable"));
            }
            partner_bits = Some(bits);
        }
        let (e_rec, e_lig) =
            partner_bits.map_or((0.0, 0.0), |(a, b)| (f64::from_bits(a), f64::from_bits(b)));

        if traced {
            let mut counts = Vec::new();
            self.closed_loop(COUNT_EVALS, |run, k| {
                let complex = run.inputs.complex(&receptor, &ligand, k);
                if let Some((_, c)) = run.checked_decomposition("eval", k, &complex) {
                    counts.push(c);
                }
            });
            let tr = self.tracer.as_ref().expect("traced run");
            layer_metrics(tr, "eval", &counts, &mut self.metrics);
            return;
        }

        self.closed_loop(COUNT_EVALS, |run, k| {
            let complex = run.inputs.complex(&receptor, &ligand, k);
            let t = Instant::now();
            let r = run_serial_mol(&complex, &run.approx, &run.cfg);
            let dt = t.elapsed().as_secs_f64();
            let ok = match r {
                Ok(r) if (r.energy_kcal - e_rec - e_lig).is_finite() => Ok(()),
                Ok(r) => Err(format!(
                    "pose {k}: non-finite binding energy from {}",
                    r.energy_kcal
                )),
                Err(e) => Err(format!("pose {k}: {e}")),
            };
            run.timed_result(dt, ok);
        });
        let rss = peak_rss_mb();
        let panel: Vec<Molecule> = (0..ERR_POSES)
            .map(|k| self.inputs.panel().complex(&receptor, &ligand, k))
            .collect();
        let (approx, cfg) = (self.approx, self.cfg);
        let errs = self.panel_err(&panel, |m| {
            run_serial_mol(m, &approx, &cfg)
                .map(|r| r.energy_kcal)
                .map_err(|e| e.to_string())
        });
        self.finish_untraced(rss, &errs);
    }

    // ---------------------------------------------------------------
    // perturb_scan: DeltaEngine queries (4 moves + 1 charge, revert).
    // ---------------------------------------------------------------

    fn perturb_scan(&mut self) {
        let base = self.inputs.perturb_base();
        let traced = self.tracer.is_some();
        let reps = PERTURB_SETUPS[traced as usize];

        let mut engine: Option<DeltaEngine> = None;
        let mut base_bits: Option<u64> = None;
        for rep in 0..reps {
            drop(engine.take()); // release the previous engine before building the next
            let built = self.bracketed(|run| {
                if traced {
                    let approx = run.approx;
                    let tr = run.tracer.as_mut().expect("traced run");
                    return tr.root("setup", rep as u64, |tr| {
                        tr.span("delta.new", |_| DeltaEngine::new(&base, &approx, SKIN))
                    });
                }
                let t = Instant::now();
                let e = DeltaEngine::new(&base, &run.approx, SKIN);
                run.setup.push(t.elapsed().as_secs_f64());
                e
            });
            let bits = built.raw().to_bits();
            if !built.energy_kcal().is_finite() || base_bits.is_some_and(|b| b != bits) {
                self.tally.fail(&format!(
                    "perturb set-up rep {rep}: base energy {} not finite or not repeatable",
                    built.energy_kcal()
                ));
            }
            base_bits = Some(bits);
            engine = Some(built);
        }
        let mut engine = engine.expect("at least one set-up repetition");
        let base_raw = engine.raw().to_bits();
        let base_energy = engine.energy_kcal();

        let mut delta_counts: Vec<(f64, f64, bool)> = Vec::new();
        let mut sampled: Vec<(Perturbation, u64, u64)> = Vec::new();
        self.closed_loop(COUNT_QUERIES, |run, j| {
            let q = run.inputs.query(&base, j);
            let untraced = |engine: &mut DeltaEngine| {
                let t = Instant::now();
                let ev = engine.apply_perturbation(&q, None);
                let reverted = engine.revert(None);
                (ev, reverted, t.elapsed().as_secs_f64())
            };
            let (ev, reverted, dt, twin) = match run.tracer.as_mut() {
                Some(tr) => {
                    // Untraced twin of the same query, alternating order.
                    let early = (j % 2 == 1).then(|| untraced(&mut engine));
                    let (ev, reverted) = tr.root("eval", j as u64, |tr| {
                        let ev = tr.span("delta.apply", |_| engine.apply_perturbation(&q, None));
                        (ev, tr.span("delta.revert", |_| engine.revert(None)))
                    });
                    let dt = tr.last_root_dur();
                    (
                        ev,
                        reverted,
                        dt,
                        Some(early.unwrap_or_else(|| untraced(&mut engine))),
                    )
                }
                None => {
                    let (ev, reverted, dt) = untraced(&mut engine);
                    (ev, reverted, dt, None)
                }
            };
            if let Some((twin, twin_reverted, twin_dt)) = twin {
                run.twins.push((dt, twin_dt, j % 2 == 0));
                if twin.raw.to_bits() != ev.raw.to_bits() || !twin_reverted {
                    run.tally
                        .trace_fault(&format!("query {j}: traced and untraced answers differ"));
                }
            }
            if j < COUNT_QUERIES {
                delta_counts.push((
                    ev.entries_redone as f64,
                    ev.total_entries as f64,
                    ev.rebuilt,
                ));
            }
            if CHECKED_QUERIES.contains(&j) {
                sampled.push((q.clone(), ev.raw.to_bits(), ev.energy_kcal.to_bits()));
            }
            let ok = if !ev.energy_kcal.is_finite() {
                Err(format!("query {j}: non-finite energy {}", ev.energy_kcal))
            } else if ev.rebuilt {
                Err(format!("query {j}: crossed the skin boundary"))
            } else if !reverted || engine.raw().to_bits() != base_raw {
                Err(format!(
                    "query {j}: revert did not restore the base energy bits"
                ))
            } else {
                Ok(())
            };
            run.timed_result(dt, ok);
        });
        let rss = peak_rss_mb();
        let delta_bytes = engine.memory_bytes() as f64;
        let sys_bytes = engine.system().memory_bytes();
        let engine_counts = LayerCounts {
            qpoints: engine.system().n_qpoints() as f64,
            system_bytes: sys_bytes as f64,
            list_entries: engine.total_entries() as f64,
            list_bytes: (engine.engine().memory_bytes() - sys_bytes) as f64,
            ..LayerCounts::default()
        };
        drop(engine);

        // Sampled queries must bit-match a fresh ListEngine prepared at the
        // base geometry with the query's charges, evaluated at the moved
        // positions.
        for (q, raw, energy) in &sampled {
            let mut m = base.clone();
            for &(a, c) in &q.charges {
                m.charges[a] = c;
            }
            let mut moved = base.positions.clone();
            for &(a, to) in &q.moves {
                moved[a] = to;
            }
            let mut fresh = ListEngine::new(&m, &self.approx, SKIN);
            let ev = fresh.evaluate(&moved);
            if ev.raw.to_bits() != *raw || ev.energy_kcal.to_bits() != *energy {
                self.tally.fail(&format!(
                    "sampled query: delta {} != fresh ListEngine {}",
                    f64::from_bits(*raw),
                    ev.raw
                ));
            }
        }

        if traced {
            let tr = self.tracer.as_ref().expect("traced run");
            // Only the engine's own structures are visible from outside
            // `DeltaEngine::new`; its surface, system, list and kernel
            // times, and the op counts of a full pass, are not, and stay 0.
            count_metrics(&[engine_counts], &mut self.metrics);
            let m = &mut self.metrics;
            m.insert(
                "delta.apply_s",
                median(&tr.self_per_root("eval", &["delta.apply"])),
            );
            m.insert(
                "delta.revert_s",
                median(&tr.self_per_root("eval", &["delta.revert"])),
            );
            let redone: Vec<f64> = delta_counts.iter().map(|c| c.0).collect();
            let frac: Vec<f64> = delta_counts.iter().map(|c| c.0 / c.1).collect();
            m.insert("delta.entries_redone", median(&redone));
            m.insert("delta.redo_frac", median(&frac));
            m.insert(
                "delta.rebuilds",
                delta_counts.iter().filter(|c| c.2).count() as f64,
            );
            m.insert("delta.bytes", delta_bytes);
            return;
        }
        let err = self.err_vs_naive(&base, base_energy);
        self.finish_untraced(rss, &[err]);
    }

    // ---------------------------------------------------------------
    // fig4_proc: run_oct_mpi_proc_ft over 2 processes.
    // ---------------------------------------------------------------

    fn fig4_proc(&mut self) {
        let cluster =
            ClusterSpec::new(MachineSpec::lonestar4(), Placement::distributed(PROC_RANKS));
        let (approx, cfg) = (self.approx, self.cfg);
        let proc_run = |mol: &Molecule| {
            let t = Instant::now();
            let r = run_oct_mpi_proc_ft(
                mol,
                &approx,
                &cfg,
                PROC_RANKS,
                WorkDivision::NodeNode,
                &FtConfig::default(),
            );
            (r, t.elapsed().as_secs_f64())
        };
        let proc_ok =
            |mol: &Molecule, r: &Result<polaroct_core::RunReport, polaroct_core::DriverError>| {
                match r {
                    Ok(r) if r.energy_kcal.is_finite() && r.outcome == RunOutcome::Completed => {
                        Ok(())
                    }
                    Ok(r) => Err(format!(
                        "{}: energy {} outcome {:?}",
                        mol.name, r.energy_kcal, r.outcome
                    )),
                    Err(e) => Err(format!("{}: {e}", mol.name)),
                }
            };

        if self.tracer.is_some() {
            let mut counts = Vec::new();
            let mut transport = Vec::new();
            let mut retries = 0u32;
            self.closed_loop(COUNT_EVALS, |run, i| {
                let mol = run.inputs.oneshot(i);
                let early = (i % 2 == 1).then(|| proc_run(&mol));
                let tr = run.tracer.as_mut().expect("traced run");
                let (r, inproc, c) = tr.root("eval", i as u64, |tr| {
                    let r = tr.span("procexec", |_| proc_run(&mol).0);
                    let (inproc, c) = tr.span("procexec.inproc", |tr| {
                        let quad = tr.span("surface", |_| surface_quadrature(&mol, approx.surface));
                        let sys = tr.span("system", |_| {
                            GbSystem::prepare_with_surface(&mol, &quad, &approx)
                        });
                        let c = LayerCounts {
                            qpoints: quad.positions.len() as f64,
                            system_bytes: sys.memory_bytes() as f64,
                            ..LayerCounts::default()
                        };
                        let r = tr.span("cluster.fig4", |_| {
                            run_oct_mpi_ft(
                                &sys,
                                &approx,
                                &cfg,
                                &cluster,
                                WorkDivision::NodeNode,
                                &FtConfig::default(),
                            )
                        });
                        (r, c)
                    });
                    (r, inproc, c)
                });
                let spans = tr.spans();
                let proc_dt = spans
                    .iter()
                    .rev()
                    .find(|s| s.name == "procexec")
                    .map_or(0.0, |s| s.dur());
                let inproc_dt = spans
                    .iter()
                    .rev()
                    .find(|s| s.name == "procexec.inproc")
                    .map_or(0.0, |s| s.dur());
                let (_, twin_dt) = early.unwrap_or_else(|| proc_run(&mol));
                run.timed += proc_dt;
                let ok = proc_ok(&mol, &r).and_then(|()| match (&r, &inproc) {
                    (Ok(p), Ok(q)) if p.energy_kcal.to_bits() == q.energy_kcal.to_bits() => Ok(()),
                    (p, q) => Err(format!(
                        "{}: process energy {:?} != in-process {:?}",
                        mol.name,
                        p.as_ref().map(|r| r.energy_kcal),
                        q.as_ref().map(|r| r.energy_kcal).map_err(|e| e.to_string())
                    )),
                });
                match ok {
                    Ok(()) => {
                        run.lat.push(proc_dt);
                        run.twins.push((proc_dt, twin_dt, i % 2 == 0));
                        transport.push(proc_dt - inproc_dt);
                        if i < COUNT_EVALS {
                            let (p, q) = (
                                r.as_ref().expect("checked"),
                                inproc.as_ref().expect("checked"),
                            );
                            retries += p.ft.retries + q.ft.retries;
                            counts.push(LayerCounts {
                                born_near: p.ops.born_near as f64,
                                born_far: p.ops.born_far as f64,
                                epol_near: p.ops.epol_near as f64,
                                epol_far: p.ops.epol_far as f64,
                                ..c
                            });
                        }
                    }
                    Err(why) => run.tally.fail(&why),
                }
            });
            let tr = self.tracer.as_ref().expect("traced run");
            layer_metrics(tr, "eval", &counts, &mut self.metrics);
            let m = &mut self.metrics;
            // Fig. 4 runs interleave Born and E_pol inside the ranks, so
            // only their op counts are separable, not their times.
            for name in [
                "born.exec_s",
                "born.push_s",
                "born.ns_per_near",
                "epol.bins_s",
                "epol.exec_s",
                "epol.ns_per_near",
            ] {
                m.insert(name, 0.0);
            }
            m.insert(
                "procexec.s",
                median(&tr.self_per_root("eval", &["procexec"])),
            );
            m.insert(
                "procexec.inproc_s",
                median(&tr.dur_per_root("eval", &["procexec.inproc"])),
            );
            m.insert("procexec.transport_s", median(&transport));
            m.insert("cluster.retries", retries as f64);
            return;
        }

        self.prepare_setup(&self.inputs.oneshot(0));
        let mut kept = Vec::new();
        self.closed_loop(COUNT_EVALS, |run, i| {
            let mol = run.inputs.oneshot(i);
            let (r, dt) = proc_run(&mol);
            let ok = proc_ok(&mol, &r);
            if ok.is_ok() && CHECKED_PROC_EVALS.contains(&i) {
                kept.push((mol, r.as_ref().map(|r| r.energy_kcal).unwrap_or(f64::NAN)));
            }
            run.timed_result(dt, ok);
        });
        let rss = peak_rss_mb();
        for (mol, energy) in &kept {
            let sys = GbSystem::prepare(mol, &self.approx);
            let inproc = run_oct_mpi_ft(
                &sys,
                &self.approx,
                &self.cfg,
                &cluster,
                WorkDivision::NodeNode,
                &FtConfig::default(),
            );
            match inproc {
                Ok(r) if r.energy_kcal.to_bits() == energy.to_bits() => {}
                other => self.tally.fail(&format!(
                    "{}: process energy {energy} != in-process {:?}",
                    mol.name,
                    other.map(|r| r.energy_kcal).map_err(|e| e.to_string())
                )),
            }
        }
        let panel: Vec<Molecule> = (0..ERR_MOLECULES)
            .map(|i| self.inputs.panel().oneshot(i))
            .collect();
        let errs = self.panel_err(&panel, |m| {
            proc_run(m)
                .0
                .map(|r| r.energy_kcal)
                .map_err(|e| e.to_string())
        });
        self.finish_untraced(rss, &errs);
    }
}

/// Work counts of one decomposed evaluation (all repeat exactly).
#[derive(Clone, Copy, Debug, Default)]
struct LayerCounts {
    qpoints: f64,
    system_bytes: f64,
    list_entries: f64,
    list_bytes: f64,
    born_near: f64,
    born_far: f64,
    epol_near: f64,
    epol_far: f64,
}

struct Decomposed {
    energy: f64,
    born_radii: Vec<f64>,
    counts: LayerCounts,
}

/// `run_serial_mol` as the sequence of its public calls, one span each:
/// surface → system (octrees + arenas) → Born lists → Born execution →
/// push → charge bins → E_pol lists → E_pol execution.
fn decomposed(tr: &mut Tracer, mol: &Molecule, approx: &ApproxParams) -> Decomposed {
    let quad = tr.span("surface", |_| surface_quadrature(mol, approx.surface));
    let sys = tr.span("system", |_| {
        GbSystem::prepare_with_surface(mol, &quad, approx)
    });
    let n = sys.n_atoms();
    let born_lists = tr.span("lists.build", |_| {
        BornLists::build_single(&sys, approx.eps_born)
    });
    let (acc, born_ops) = tr.span("born.exec", |_| {
        let mut acc = BornAccumulators::zeros(&sys);
        let ops = born_lists.execute(&sys, None, &mut acc);
        (acc, ops)
    });
    let born = tr.span("born.push", |_| {
        let mut born = vec![0.0; n];
        push_integrals_to_atoms(&sys, &acc, 0..n, approx.math, &mut born);
        born
    });
    let bins = tr.span("epol.bins", |_| {
        ChargeBins::build(&sys, &born, approx.eps_epol)
    });
    let epol_lists = tr.span("lists.build", |_| {
        EpolLists::build_single(&sys, &bins, approx.eps_epol)
    });
    let (raw, epol_ops) = tr.span("epol.exec", |_| {
        epol_lists.execute(&sys, &bins, &born, approx.math, None)
    });
    Decomposed {
        energy: epol_from_raw_sum(raw, approx.eps_solvent),
        born_radii: sys.to_original_atom_order(&born),
        counts: LayerCounts {
            qpoints: quad.positions.len() as f64,
            system_bytes: sys.memory_bytes() as f64,
            list_entries: (born_lists.len() + epol_lists.len()) as f64,
            list_bytes: (born_lists.memory_bytes() + epol_lists.memory_bytes()) as f64,
            born_near: born_ops.born_near as f64,
            born_far: born_ops.born_far as f64,
            epol_near: epol_ops.epol_near as f64,
            epol_far: epol_ops.epol_far as f64,
        },
    }
}

/// Per-layer metrics of the decomposition spans under roots of `kind`:
/// times are medians over roots of per-root self time; counts as in
/// [`count_metrics`]; ns per near interaction pairs each root's execution
/// time with its own count.
fn layer_metrics(tr: &Tracer, kind: &str, counts: &[LayerCounts], m: &mut Metrics) {
    let self_of = |name: &str| tr.self_per_root(kind, &[name]);
    for (metric, span) in [
        ("surface.s", "surface"),
        ("system.s", "system"),
        ("lists.build_s", "lists.build"),
        ("born.exec_s", "born.exec"),
        ("born.push_s", "born.push"),
        ("epol.bins_s", "epol.bins"),
        ("epol.exec_s", "epol.exec"),
    ] {
        m.insert(metric, median(&self_of(span)));
    }
    count_metrics(counts, m);
    let ns_per = |times: Vec<f64>, near: fn(&LayerCounts) -> f64| {
        let v: Vec<f64> = times
            .iter()
            .zip(counts)
            .filter(|(_, c)| near(c) > 0.0)
            .map(|(t, c)| t * 1e9 / near(c))
            .collect();
        median(&v)
    };
    m.insert(
        "born.ns_per_near",
        ns_per(self_of("born.exec"), |c| c.born_near),
    );
    m.insert(
        "epol.ns_per_near",
        ns_per(self_of("epol.exec"), |c| c.epol_near),
    );
}

/// Count metrics: medians over the first [`COUNT_EVALS`] entries of
/// `counts`.
fn count_metrics(counts: &[LayerCounts], m: &mut Metrics) {
    let first = &counts[..counts.len().min(COUNT_EVALS)];
    let count = |f: fn(&LayerCounts) -> f64| median(&first.iter().map(f).collect::<Vec<_>>());
    m.insert("surface.qpoints", count(|c| c.qpoints));
    m.insert("system.bytes", count(|c| c.system_bytes));
    m.insert("lists.entries", count(|c| c.list_entries));
    m.insert("lists.bytes", count(|c| c.list_bytes));
    m.insert("born.near", count(|c| c.born_near));
    m.insert("born.far", count(|c| c.born_far));
    m.insert("epol.near", count(|c| c.epol_near));
    m.insert("epol.far", count(|c| c.epol_far));
}
