//! Minimal molecular-dynamics loop over the GB polarization forces.
//!
//! The paper situates its algorithm inside "molecular dynamics simulations
//! for determining the molecular conformation with minimal total free
//! energy" (§I). This module closes that loop at demonstration scale: a
//! velocity-Verlet integrator driven by [`crate::forces`] (plus an
//! optional harmonic restraint so a bare polarization surface — which is
//! not a full force field — stays bounded). It is the consumer that makes
//! the force API's contract concrete and testable (energy drift, time
//! reversibility).
//!
//! Energies and Born radii come from a persistent
//! [`crate::lists::ListEngine`]: octrees and interaction lists are built
//! with node bounds inflated by [`MdParams::skin`] and reused across
//! steps, rebuilt only when the tracked max displacement from the build
//! geometry exceeds `skin / 2` (the Verlet-list protocol, DESIGN.md §11).

use crate::delta::{DeltaEngine, Perturbation};
use crate::forces::forces_cutoff;
use crate::lists::ListEngine;
use crate::params::ApproxParams;
use crate::system::GbSystem;
use polaroct_cluster::simtime::OpCounts;
use polaroct_geom::Vec3;
use polaroct_molecule::Molecule;

/// Integrator settings.
#[derive(Clone, Copy, Debug)]
pub struct MdParams {
    /// Time step (fs). GB-only surfaces are smooth; 1–2 fs is safe.
    pub dt_fs: f64,
    /// Pair cutoff for the force kernel (Å).
    pub cutoff: f64,
    /// Steps between Born-radius refreshes. Retained for configuration
    /// compatibility; the list engine now refreshes radii every step
    /// (cheap: a flat kernel sweep over prebuilt lists) and rebuilds the
    /// octrees/lists only on skin violation, superseding this schedule.
    pub born_refresh_every: usize,
    /// Harmonic restraint to each atom's start position
    /// (kcal/mol/Å²; 0 disables).
    pub restraint_k: f64,
    /// Verlet skin (Å): node bounds are inflated by this margin at build
    /// time, so octrees and interaction lists stay valid until any atom
    /// drifts more than `skin / 2` from the build geometry. `0.0`
    /// rebuilds whenever the geometry changes at all.
    pub skin: f64,
}

impl Default for MdParams {
    fn default() -> Self {
        MdParams {
            dt_fs: 1.0,
            cutoff: 20.0,
            born_refresh_every: 5,
            restraint_k: 1.0,
            skin: 0.5,
        }
    }
}

/// Trajectory statistics returned by [`run_md`].
#[derive(Clone, Debug)]
pub struct MdReport {
    /// Polarization energy after each step (kcal/mol).
    pub energies: Vec<f64>,
    /// Max displacement of any atom from its start (Å).
    pub max_displacement: f64,
    /// Final positions.
    pub positions: Vec<Vec3>,
    /// Steps whose energy was served by previously built interaction
    /// lists (Verlet-skin hit count).
    pub lists_reused: u64,
    /// Octree + list rebuilds over the trajectory (includes the initial
    /// build before step 0).
    pub lists_rebuilt: u64,
    /// Total kernel ops across all energy evaluations.
    pub ops: OpCounts,
    /// Bytes held by the list engine at the end of the trajectory
    /// (prepared system incl. persistent leaf arenas, plus both
    /// interaction lists).
    pub memory_bytes: usize,
}

/// Run `steps` of velocity Verlet on `mol` (masses from the element
/// table). Returns per-step polarization energies and the final geometry.
pub fn run_md(mol: &Molecule, approx: &ApproxParams, md: &MdParams, steps: usize) -> MdReport {
    // Unit bookkeeping: x in Å, t in fs, m in Da, E in kcal/mol.
    // F [kcal/mol/Å] → a [Å/fs²] via the standard conversion 4.184e-4.
    const ACC: f64 = 4.184e-4;
    let n = mol.len();
    let masses: Vec<f64> = mol.elements.iter().map(|e| e.mass()).collect();
    let start = mol.positions.clone();
    let mut pos = mol.positions.clone();
    let mut vel = vec![Vec3::ZERO; n];
    let mut energies = Vec::with_capacity(steps);
    let mut ops = OpCounts::default();

    let mut engine = ListEngine::new(mol, approx, md.skin);
    let mut forces = force_field(engine.system(), engine.born(), &pos, &start, approx, md);

    for _ in 0..steps {
        let dt = md.dt_fs;
        // Kick-drift.
        for i in 0..n {
            vel[i] += forces[i] * (0.5 * dt * ACC / masses[i]);
            pos[i] += vel[i] * dt;
        }
        // Refresh radii + energy through the list engine: lists are
        // reused while max displacement stays within skin/2, rebuilt
        // (with the octrees) the moment it does not.
        let eval = engine.evaluate(&pos);
        ops.add(&eval.ops);
        forces = force_field(engine.system(), engine.born(), &pos, &start, approx, md);
        // Second kick.
        for i in 0..n {
            vel[i] += forces[i] * (0.5 * dt * ACC / masses[i]);
        }
        energies.push(eval.energy_kcal);
    }

    let max_displacement = pos
        .iter()
        .zip(&start)
        .map(|(p, s)| p.dist(*s))
        .fold(0.0f64, f64::max);
    MdReport {
        energies,
        max_displacement,
        positions: pos,
        lists_reused: engine.lists_reused,
        lists_rebuilt: engine.lists_rebuilt,
        ops,
        memory_bytes: engine.memory_bytes(),
    }
}

/// Settings for [`run_perturbation_scan`].
#[derive(Clone, Copy, Debug)]
pub struct PerturbationScanParams {
    /// Verlet skin handed to the underlying [`DeltaEngine`] (Å).
    pub skin: f64,
    /// Atoms moved per query (`k`).
    pub moves_per_query: usize,
    /// Number of perturbation queries.
    pub queries: usize,
    /// Per-component displacement amplitude (Å). Keep below `skin / 2`
    /// to stay on the incremental path; larger amplitudes exercise the
    /// rebuild fallback.
    pub amplitude: f64,
    /// Deterministic stream seed for atom choice and displacements.
    pub seed: u64,
    /// Revert each query after recording its energy (mutation-screening
    /// mode: every query is scored against the same base state).
    pub revert_each: bool,
}

impl Default for PerturbationScanParams {
    fn default() -> Self {
        PerturbationScanParams {
            skin: 0.8,
            moves_per_query: 4,
            queries: 16,
            amplitude: 0.15,
            seed: 1,
            revert_each: true,
        }
    }
}

/// Scan statistics returned by [`run_perturbation_scan`] — the delta
/// analog of [`MdReport`]'s list-reuse accounting.
#[derive(Clone, Debug)]
pub struct PerturbationScanReport {
    /// Polarization energy after each query (kcal/mol).
    pub energies: Vec<f64>,
    /// Chunks holding a re-executed entry, summed over all queries.
    pub chunks_redone: u64,
    /// Chunks with no re-executed entry, summed over all queries.
    pub chunks_cached: u64,
    /// Chunks per full evaluation (both lists).
    pub total_chunks: usize,
    /// Queries served incrementally vs via scaffold rebuild.
    pub queries_incremental: u64,
    pub queries_rebuilt: u64,
    /// List entries re-executed / served from cache across all queries.
    pub entries_redone: u64,
    pub entries_cached: u64,
    /// Entries per full evaluation (both lists).
    pub total_entries: usize,
    /// Wall time spent inside `apply_perturbation` (excludes setup and
    /// reverts).
    pub delta_wall: std::time::Duration,
    /// Reverts performed (= queries when `revert_each`).
    pub reverted: u64,
    /// Bytes held by the delta engine at the end of the scan.
    pub memory_bytes: usize,
}

/// Drive a [`DeltaEngine`] through a deterministic random perturbation
/// scan: each query moves `k` atoms by up to `amplitude` per component,
/// re-evaluates incrementally (bit-identical to a full run by the
/// engine's contract) and optionally reverts. `pool` parallelizes the
/// dirty-entry re-execution; the energies are bitwise independent of it.
pub fn run_perturbation_scan(
    mol: &Molecule,
    approx: &ApproxParams,
    scan: &PerturbationScanParams,
    pool: Option<&polaroct_sched::WorkStealingPool>,
) -> PerturbationScanReport {
    // splitmix64: deterministic, dependency-free stream.
    let mut state = scan.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    // Uniform in [-1, 1).
    let mut unit = move || (next() >> 11) as f64 / (1u64 << 52) as f64 - 1.0;

    let n = mol.len();
    let mut engine = DeltaEngine::new(mol, approx, scan.skin);
    let mut energies = Vec::with_capacity(scan.queries);
    let (mut redone, mut cached, mut reverted) = (0u64, 0u64, 0u64);
    let (mut e_redone, mut e_cached) = (0u64, 0u64);
    let mut delta_wall = std::time::Duration::ZERO;

    for _ in 0..scan.queries {
        let mut p = Perturbation::default();
        for _ in 0..scan.moves_per_query.min(n) {
            let atom = (unit() * 0.5 + 0.5) * n as f64;
            let atom = (atom as usize).min(n - 1);
            let d = Vec3::new(
                unit() * scan.amplitude,
                unit() * scan.amplitude,
                unit() * scan.amplitude,
            );
            // PANIC-OK: atom < n by the clamp above.
            p = p.move_atom(atom, engine.positions()[atom] + d);
        }
        let t0 = std::time::Instant::now();
        let eval = engine.apply_perturbation(&p, pool);
        delta_wall += t0.elapsed();
        redone += eval.chunks_redone as u64;
        cached += eval.chunks_cached as u64;
        e_redone += eval.entries_redone as u64;
        e_cached += eval.entries_cached as u64;
        energies.push(eval.energy_kcal);
        if scan.revert_each && engine.revert(pool) {
            reverted += 1;
        }
    }

    PerturbationScanReport {
        energies,
        chunks_redone: redone,
        chunks_cached: cached,
        total_chunks: engine.total_chunks(),
        queries_incremental: engine.queries_incremental,
        queries_rebuilt: engine.queries_rebuilt,
        entries_redone: e_redone,
        entries_cached: e_cached,
        total_entries: engine.total_entries(),
        delta_wall,
        reverted,
        memory_bytes: engine.memory_bytes(),
    }
}

/// GB forces at `pos` (approximating with the radii/octree snapshot from
/// the last refresh) plus the harmonic restraint.
fn force_field(
    sys: &GbSystem,
    born: &[f64],
    pos: &[Vec3],
    start: &[Vec3],
    approx: &ApproxParams,
    md: &MdParams,
) -> Vec<Vec3> {
    // Forces are computed on the snapshot geometry inside `sys` (the list
    // engine refreshes its Morton-ordered positions every evaluate, so
    // only node bounds/aggregates lag by at most skin/2); the restraint
    // follows the live positions.
    let (sorted, _) = forces_cutoff(sys, born, approx.eps_solvent, md.cutoff, approx.math);
    let mut f = crate::forces::forces_original_order(sys, &sorted);
    if md.restraint_k > 0.0 {
        for i in 0..pos.len() {
            f[i] += (start[i] - pos[i]) * md.restraint_k;
        }
    }
    f
}

#[cfg(test)]
mod tests {
    use super::*;
    use polaroct_molecule::synth;

    #[test]
    fn md_runs_and_stays_bounded() {
        let mol = synth::ligand("md", 30, 5);
        let report = run_md(&mol, &ApproxParams::default(), &MdParams::default(), 10);
        assert_eq!(report.energies.len(), 10);
        for e in &report.energies {
            assert!(e.is_finite());
        }
        // Restrained demo dynamics must not explode.
        assert!(
            report.max_displacement < 5.0,
            "atoms flew {} Å in 10 fs",
            report.max_displacement
        );
        // Every step either reused or rebuilt, plus the initial build.
        assert_eq!(report.lists_reused + report.lists_rebuilt, 11);
        assert!(report.ops.total() > 0);
        assert!(report.memory_bytes > 0);
    }

    #[test]
    fn zero_steps_is_empty_report() {
        let mol = synth::ligand("md", 10, 1);
        let report = run_md(&mol, &ApproxParams::default(), &MdParams::default(), 0);
        assert!(report.energies.is_empty());
        assert_eq!(report.max_displacement, 0.0);
        assert_eq!(report.positions, mol.positions);
        assert_eq!(report.lists_reused, 0);
        assert_eq!(report.lists_rebuilt, 1);
    }

    #[test]
    fn stronger_restraint_moves_less() {
        let mol = synth::ligand("md", 25, 9);
        let loose = run_md(
            &mol,
            &ApproxParams::default(),
            &MdParams {
                restraint_k: 0.1,
                ..Default::default()
            },
            15,
        );
        let tight = run_md(
            &mol,
            &ApproxParams::default(),
            &MdParams {
                restraint_k: 20.0,
                ..Default::default()
            },
            15,
        );
        assert!(
            tight.max_displacement <= loose.max_displacement + 1e-9,
            "tight {} vs loose {}",
            tight.max_displacement,
            loose.max_displacement
        );
    }

    #[test]
    fn skin_reuses_lists_on_most_steps() {
        // Restrained ligand dynamics moves ≪ 0.25 Å/step, so a 0.5 Å
        // skin must serve the majority of steps from prebuilt lists.
        let mol = synth::ligand("md", 30, 5);
        let report = run_md(
            &mol,
            &ApproxParams::default(),
            &MdParams {
                skin: 0.5,
                ..Default::default()
            },
            12,
        );
        assert!(
            report.lists_reused > report.lists_rebuilt,
            "reused {} vs rebuilt {}",
            report.lists_reused,
            report.lists_rebuilt
        );
    }

    #[test]
    fn perturbation_scan_is_deterministic_and_incremental() {
        let mol = synth::protein("scan", 140, 21);
        let approx = ApproxParams::default();
        let scan = PerturbationScanParams::default();
        let a = run_perturbation_scan(&mol, &approx, &scan, None);
        let b = run_perturbation_scan(&mol, &approx, &scan, None);
        assert_eq!(a.energies.len(), scan.queries);
        for (x, y) in a.energies.iter().zip(&b.energies) {
            assert_eq!(x.to_bits(), y.to_bits(), "scan must be deterministic");
        }
        // 0.15 Å amplitude against a 0.8 Å skin stays incremental.
        assert_eq!(a.queries_rebuilt, 0);
        assert_eq!(a.queries_incremental, scan.queries as u64);
        assert_eq!(a.reverted, scan.queries as u64);
        assert!(
            a.chunks_redone < scan.queries as u64 * a.total_chunks as u64,
            "redone {} of {} available",
            a.chunks_redone,
            scan.queries * a.total_chunks
        );
        assert!(a.chunks_redone + a.chunks_cached == scan.queries as u64 * a.total_chunks as u64);
        assert!(a.memory_bytes > 0);
    }

    #[test]
    fn perturbation_scan_pool_matches_serial_bits() {
        let mol = synth::protein("scan", 120, 8);
        let approx = ApproxParams::default();
        let scan = PerturbationScanParams {
            queries: 6,
            ..Default::default()
        };
        let serial = run_perturbation_scan(&mol, &approx, &scan, None);
        let pool = polaroct_sched::WorkStealingPool::new(3);
        let pooled = run_perturbation_scan(&mol, &approx, &scan, Some(&pool));
        for (x, y) in serial.energies.iter().zip(&pooled.energies) {
            assert_eq!(x.to_bits(), y.to_bits(), "pool must not change bits");
        }
        assert_eq!(serial.chunks_redone, pooled.chunks_redone);
    }

    #[test]
    fn zero_skin_rebuilds_every_step() {
        let mol = synth::ligand("md", 20, 3);
        let steps = 6;
        let report = run_md(
            &mol,
            &ApproxParams::default(),
            &MdParams {
                skin: 0.0,
                ..Default::default()
            },
            steps,
        );
        // Atoms move every step (forces are nonzero), so skin 0 rebuilds
        // on every evaluate plus the initial build.
        assert_eq!(report.lists_rebuilt, steps as u64 + 1);
        assert_eq!(report.lists_reused, 0);
    }
}
