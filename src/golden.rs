//! Golden-value regression fixtures: exact-bits snapshots of `E_pol`
//! and an FNV-1a digest of the Born radii for a fixed set of bundled
//! example molecules.
//!
//! The snapshots live in `tests/golden/*.golden` and are compared by
//! **exact string diff** in `tests/golden_values.rs` — any change to
//! the numerics, the octree layout, the surface sampler, or the
//! traversal order shows up as a failed diff with both strings printed.
//! To accept an intentional change, regenerate with `cargo xtask bless`
//! (which runs the `bless_golden` binary) and review the diff in git.
//!
//! Snapshot contents are pure functions of the molecule and
//! `ApproxParams::default()`: the energy as both decimal and raw IEEE
//! bits (hex), the Born-radii digest (FNV-1a over the f64 bit patterns,
//! in original atom order), and the input sizes so a generator change
//! is distinguishable from a numeric change.

use polaroct_cluster::comm::checksum;
use polaroct_core::drivers::DriverConfig;
use polaroct_core::{run_serial, ApproxParams, DeltaEngine, GbSystem, Perturbation};
use polaroct_geom::Vec3;
use polaroct_molecule::{synth, Molecule};
use std::path::PathBuf;

/// One golden case: a deterministic synthetic molecule.
pub struct GoldenCase {
    /// File-safe case name (`tests/golden/<name>.golden`).
    pub name: &'static str,
    /// Builds the molecule (must be deterministic).
    pub make: fn() -> Molecule,
}

/// The bundled example molecules covered by the suite: a small ligand,
/// a mid-size globular protein, and a hollow capsid shell — the three
/// synthetic geometries the paper's evaluation draws on, at sizes small
/// enough to keep the tier-1 suite fast.
pub fn cases() -> Vec<GoldenCase> {
    vec![
        GoldenCase {
            name: "ligand_60",
            make: || synth::ligand("golden-ligand", 60, 0x11AD),
        },
        GoldenCase {
            name: "protein_800",
            make: || synth::protein("golden-protein", 800, 0xA11CE),
        },
        GoldenCase {
            name: "capsid_1500",
            make: || synth::capsid("golden-capsid", 1_500, 0xCAB51D),
        },
    ]
}

/// Directory holding the committed `.golden` files.
pub fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
}

/// Render the snapshot for one molecule: run the serial octree driver
/// under default parameters and format the exact results.
pub fn snapshot(name: &str, mol: &Molecule) -> String {
    let params = ApproxParams::default();
    let sys = GbSystem::prepare(mol, &params);
    let report = run_serial(&sys, &params, &DriverConfig::default())
        .expect("golden molecules are valid inputs");
    let radii_digest = checksum(&report.born_radii);
    format!(
        "case: {name}\n\
         atoms: {}\n\
         qpoints: {}\n\
         energy_kcal: {:.17e}\n\
         energy_kcal_bits: 0x{:016x}\n\
         born_radii_fnv1a: 0x{radii_digest:016x}\n",
        sys.n_atoms(),
        sys.n_qpoints(),
        report.energy_kcal,
        report.energy_kcal.to_bits(),
    )
}

/// Verlet skin for the delta snapshots (Å): generous enough that the
/// pinned ~0.1 Å script stays on the incremental path.
pub const DELTA_SKIN: f64 = 0.8;

/// One step of the pinned [`delta_script`]: move `atom` by `disp`,
/// optionally also setting one charge.
pub type DeltaStep = (usize, Vec3, Option<(usize, f64)>);

/// The pinned perturbation script for [`snapshot_delta`]: three queries,
/// each moving one size-scaled atom by ~0.1 Å, the second also mutating
/// one charge. Returned as `(atom, displacement, Option<(atom, charge)>)`.
pub fn delta_script(n: usize) -> [DeltaStep; 3] {
    [
        (n / 7, Vec3::new(0.10, -0.08, 0.05), None),
        (n / 3, Vec3::new(-0.07, 0.10, -0.04), Some((n / 2, 1.75))),
        (2 * n / 3, Vec3::new(0.06, 0.05, -0.10), None),
    ]
}

/// The pinned batch for the `batch` section of the delta snapshots:
/// four independent queries scored against the restored base state
/// through [`DeltaEngine::apply_batch`]. Same shape as [`delta_script`]
/// but distinct atoms/amplitudes, so the batch lines pin different bits
/// than the sequential ones.
pub fn batch_script(n: usize) -> [DeltaStep; 4] {
    [
        (n / 5, Vec3::new(0.08, 0.06, -0.09), None),
        (n / 2, Vec3::new(-0.05, 0.09, 0.07), Some((n / 4, -1.25))),
        (3 * n / 4, Vec3::new(0.09, -0.06, 0.04), None),
        (n / 9, Vec3::new(-0.04, -0.08, 0.10), Some((2 * n / 3, 0.5))),
    ]
}

/// Render the incremental-engine snapshot for one molecule: drive a
/// [`DeltaEngine`] through the pinned [`delta_script`], recording exact
/// energy bits and the chunk-cache accounting per query, then revert the
/// whole chain and record the restored bits (which must equal the base).
pub fn snapshot_delta(name: &str, mol: &Molecule) -> String {
    snapshot_delta_impl(name, mol, None)
}

/// [`snapshot_delta`] with an optional cache corruption injected before
/// the script runs — the recall test uses this to prove a deliberately
/// stale cached chunk changes the snapshot (and would therefore be
/// caught by the committed-file diff).
#[doc(hidden)]
pub fn snapshot_delta_impl(name: &str, mol: &Molecule, corrupt: Option<f64>) -> String {
    snapshot_delta_with(name, mol, |eng| {
        if let Some(delta) = corrupt {
            eng.debug_corrupt_cached_born_outputs(delta);
        }
    })
}

/// [`snapshot_delta`] with exactly one cached Born *entry* span
/// corrupted — the entry-granular recall test uses this to prove the
/// committed-file diff catches staleness at the smallest unit the
/// entry-granular cache manages.
#[doc(hidden)]
pub fn snapshot_delta_entry_impl(name: &str, mol: &Molecule, entry: usize, delta: f64) -> String {
    snapshot_delta_with(name, mol, |eng| {
        eng.debug_corrupt_cached_born_entry(entry, delta);
    })
}

fn snapshot_delta_with(
    name: &str,
    mol: &Molecule,
    corrupt: impl FnOnce(&mut DeltaEngine),
) -> String {
    let params = ApproxParams::default();
    let mut eng = DeltaEngine::new(mol, &params, DELTA_SKIN);
    corrupt(&mut eng);
    let n = mol.len();
    let mut out = format!(
        "case: {name}_delta\n\
         atoms: {n}\n\
         skin: {DELTA_SKIN}\n\
         total_chunks: {}\n\
         base_energy_bits: 0x{:016x}\n\
         base_born_fnv1a: 0x{:016x}\n",
        eng.total_chunks(),
        eng.energy_kcal().to_bits(),
        eng.born_digest(),
    );
    for (qi, (atom, d, charge)) in delta_script(n).iter().enumerate() {
        let mut p = Perturbation::default().move_atom(*atom, eng.positions()[*atom] + *d);
        if let Some((ca, q)) = charge {
            p = p.set_charge(*ca, *q);
        }
        let eval = eng.apply_perturbation(&p, None);
        out += &format!(
            "query{qi}_energy_bits: 0x{:016x}\n\
             query{qi}_chunks_redone: {}\n\
             query{qi}_chunks_cached: {}\n\
             query{qi}_rebuilt: {}\n",
            eval.energy_kcal.to_bits(),
            eval.chunks_redone,
            eval.chunks_cached,
            eval.rebuilt,
        );
    }
    while eng.revert(None) {}
    out += &format!(
        "reverted_energy_bits: 0x{:016x}\n\
         reverted_born_fnv1a: 0x{:016x}\n",
        eng.energy_kcal().to_bits(),
        eng.born_digest(),
    );

    // Batch section: the pinned 4-query batch against the restored base
    // (every query's bits must equal a sequential apply+revert of the
    // same query — the engine's contract). `entries_redone` pins the
    // entry-granular dirtiness protocol; the post-batch lines prove the
    // base survived untouched.
    let batch: Vec<Perturbation> = batch_script(n)
        .iter()
        .map(|(atom, d, charge)| {
            let mut p = Perturbation::default().move_atom(*atom, eng.positions()[*atom] + *d);
            if let Some((ca, q)) = charge {
                p = p.set_charge(*ca, *q);
            }
            p
        })
        .collect();
    out += &format!("total_entries: {}\n", eng.total_entries());
    for (qi, eval) in eng.apply_batch(&batch, None).iter().enumerate() {
        out += &format!(
            "batch{qi}_energy_bits: 0x{:016x}\n\
             batch{qi}_entries_redone: {}\n\
             batch{qi}_chunks_redone: {}\n",
            eval.energy_kcal.to_bits(),
            eval.entries_redone,
            eval.chunks_redone,
        );
    }
    out += &format!(
        "post_batch_energy_bits: 0x{:016x}\n\
         post_batch_born_fnv1a: 0x{:016x}\n",
        eng.energy_kcal().to_bits(),
        eng.born_digest(),
    );
    out
}

/// Every file name the golden suite owns (without computing snapshots).
pub fn golden_file_names() -> Vec<String> {
    cases()
        .iter()
        .flat_map(|c| [format!("{}.golden", c.name), format!("{}_delta.golden", c.name)])
        .collect()
}

/// Snapshot every case — the full-pipeline snapshot and the incremental
/// delta snapshot per molecule. Returns `(file_name, contents)` pairs.
pub fn snapshot_all() -> Vec<(String, String)> {
    cases()
        .iter()
        .flat_map(|c| {
            let mol = (c.make)();
            [
                (format!("{}.golden", c.name), snapshot(c.name, &mol)),
                (
                    format!("{}_delta.golden", c.name),
                    snapshot_delta(c.name, &mol),
                ),
            ]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cases_are_deterministic() {
        for c in cases() {
            let a = (c.make)();
            let b = (c.make)();
            assert_eq!(a.positions, b.positions, "case {}", c.name);
            assert_eq!(a.charges, b.charges, "case {}", c.name);
        }
    }

    #[test]
    fn case_names_are_file_safe_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for c in cases() {
            assert!(
                c.name
                    .chars()
                    .all(|ch| ch.is_ascii_alphanumeric() || ch == '_'),
                "name {:?} not file-safe",
                c.name
            );
            assert!(seen.insert(c.name), "duplicate case name {:?}", c.name);
        }
    }

    #[test]
    fn snapshot_is_reproducible() {
        let c = &cases()[0];
        let mol = (c.make)();
        assert_eq!(snapshot(c.name, &mol), snapshot(c.name, &mol));
    }

    #[test]
    fn delta_snapshot_is_reproducible_and_restores_base_bits() {
        let c = &cases()[0];
        let mol = (c.make)();
        let s = snapshot_delta(c.name, &mol);
        assert_eq!(s, snapshot_delta(c.name, &mol));
        // The revert chain must land back on the base bits.
        let field = |key: &str| {
            s.lines()
                .find_map(|l| l.strip_prefix(key))
                .unwrap_or_else(|| panic!("missing {key} in:\n{s}"))
                .trim()
                .to_owned()
        };
        assert_eq!(field("base_energy_bits:"), field("reverted_energy_bits:"));
        assert_eq!(field("base_born_fnv1a:"), field("reverted_born_fnv1a:"));
        // The batch section must leave the base untouched too.
        assert_eq!(field("base_energy_bits:"), field("post_batch_energy_bits:"));
        assert_eq!(field("base_born_fnv1a:"), field("post_batch_born_fnv1a:"));
    }

    #[test]
    fn delta_snapshot_batch_section_matches_sequential_applies() {
        // The pinned batch lines must equal what a sequential
        // apply → revert loop over the same queries records.
        let c = &cases()[0];
        let mol = (c.make)();
        let s = snapshot_delta(c.name, &mol);
        let mut eng = DeltaEngine::new(&mol, &ApproxParams::default(), DELTA_SKIN);
        let n = mol.len();
        for (qi, (atom, d, charge)) in batch_script(n).iter().enumerate() {
            let mut p = Perturbation::default().move_atom(*atom, eng.positions()[*atom] + *d);
            if let Some((ca, q)) = charge {
                p = p.set_charge(*ca, *q);
            }
            let eval = eng.apply_perturbation(&p, None);
            assert!(eng.revert(None));
            let want = format!(
                "batch{qi}_energy_bits: 0x{:016x}",
                eval.energy_kcal.to_bits()
            );
            assert!(
                s.lines().any(|l| l == want),
                "batch query {qi}: snapshot missing line {want:?} in:\n{s}"
            );
            let want = format!("batch{qi}_entries_redone: {}", eval.entries_redone);
            assert!(
                s.lines().any(|l| l == want),
                "batch query {qi}: snapshot missing line {want:?}"
            );
        }
    }

    #[test]
    fn file_names_cover_snapshot_all() {
        let names = golden_file_names();
        // Cheap consistency check against the expensive generator's
        // naming scheme: one plain + one delta file per case.
        assert_eq!(names.len(), cases().len() * 2);
        for c in cases() {
            assert!(names.contains(&format!("{}.golden", c.name)));
            assert!(names.contains(&format!("{}_delta.golden", c.name)));
        }
    }
}
