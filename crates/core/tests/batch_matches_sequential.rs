//! Differential harness for [`DeltaEngine::apply_batch`] (DESIGN.md
//! §16): N independent queries scored against one cached base must be
//! **bit-identical**, query by query, to
//!
//! * a sequential `apply_perturbation` + `revert` loop over a separate
//!   engine (the semantics `apply_batch` promises), and
//! * a fresh [`ListEngine`] prepared at the scaffold with each query's
//!   charges and evaluated at each query's positions (the from-scratch
//!   reference the whole delta layer is certified against),
//!
//! at pool widths {serial, 1, 4} — and the engine must end the batch
//! bit-identical to its base state (positions, charges, energies, Born
//! digest, empty undo stack).
//!
//! The recall side: a single corrupted cached *entry span* (the smallest
//! unit the entry-granular cache manages) must be visible to the
//! harness unless a query actually dirties that entry.

use polaroct_core::delta::{DeltaEngine, DeltaEval, Perturbation};
use polaroct_core::lists::ListEngine;
use polaroct_core::ApproxParams;
use polaroct_geom::Vec3;
use polaroct_molecule::{synth, Molecule};
use polaroct_sched::WorkStealingPool;
use proptest::prelude::*;

/// splitmix64 — deterministic perturbation stream.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Uniform in [-1, 1).
fn unit(state: &mut u64) -> f64 {
    (mix(state) >> 11) as f64 / (1u64 << 52) as f64 - 1.0
}

/// A batch of mixed move/charge queries around the engine's base state.
/// Amplitudes stay inside 0.2·skin per component, so most queries stay
/// incremental; occasional larger draws exercise the rebuild fallback
/// inside the batch.
fn mixed_batch(
    mol: &Molecule,
    skin: f64,
    n_queries: usize,
    k: usize,
    n_charges: usize,
    rng: &mut u64,
) -> Vec<Perturbation> {
    let n = mol.positions.len();
    (0..n_queries)
        .map(|_| {
            let mut p = Perturbation::default();
            for _ in 0..k {
                let atom = (mix(rng) % n as u64) as usize;
                let d = Vec3::new(
                    unit(rng) * 0.2 * skin,
                    unit(rng) * 0.2 * skin,
                    unit(rng) * 0.2 * skin,
                );
                p = p.move_atom(atom, mol.positions[atom] + d);
            }
            for _ in 0..n_charges {
                let atom = (mix(rng) % n as u64) as usize;
                p = p.set_charge(atom, unit(rng) * 2.0);
            }
            p
        })
        .collect()
}

/// From-scratch reference for one query against the base molecule: a
/// fresh engine prepared at the base geometry with the query's charges,
/// evaluated at the query's positions.
fn fresh_reference(mol: &Molecule, approx: &ApproxParams, skin: f64, q: &Perturbation) -> u64 {
    let mut m = mol.clone();
    for &(oi, nq) in &q.charges {
        m.charges[oi] = nq;
    }
    let mut positions = mol.positions.clone();
    for &(oi, np) in &q.moves {
        positions[oi] = np;
    }
    let mut fresh = ListEngine::new(&m, approx, skin);
    fresh.evaluate(&positions).raw.to_bits()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Random molecule × ε × skin × a mixed-query batch, checked at
    /// three pool widths against the sequential loop and the fresh
    /// per-query references.
    #[test]
    fn batch_matches_sequential(
        n in 60usize..150,
        seed in 0u64..1000,
        eps_i in 0usize..3,
        skin_i in 0usize..3,
        n_queries in 1usize..6,
        k in 1usize..5,
        n_charges in 0usize..3,
        pert_seed in 0u64..1000,
    ) {
        let eps = [0.9, 0.5, 0.25][eps_i];
        let skin = [0.5, 0.8, 1.2][skin_i];
        let approx = ApproxParams::default().with_eps(eps, eps);
        let mol = synth::protein("batchseq", n, seed);
        let mut rng = pert_seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ seed;
        let queries = mixed_batch(&mol, skin, n_queries, k, n_charges, &mut rng);

        // Reference semantics: sequential apply → revert on its own
        // engine.
        let mut seq_eng = DeltaEngine::new(&mol, &approx, skin);
        let seq: Vec<_> = queries
            .iter()
            .map(|q| {
                let e = seq_eng.apply_perturbation(q, None);
                assert!(seq_eng.revert(None));
                e
            })
            .collect();

        for width in [None, Some(1), Some(4)] {
            let pool = width.map(WorkStealingPool::new);
            let mut eng = DeltaEngine::new(&mol, &approx, skin);
            let raw0 = eng.raw().to_bits();
            let digest0 = eng.born_digest();
            let evals = eng.apply_batch(&queries, pool.as_ref());

            prop_assert_eq!(evals.len(), queries.len());
            for (qi, (s, b)) in seq.iter().zip(&evals).enumerate() {
                prop_assert_eq!(
                    s.raw.to_bits(), b.raw.to_bits(),
                    "query {} raw mismatch at width {:?} (rebuilt={})",
                    qi, width, b.rebuilt
                );
                prop_assert_eq!(s.energy_kcal.to_bits(), b.energy_kcal.to_bits());
                prop_assert_eq!(s.max_disp.to_bits(), b.max_disp.to_bits());
                prop_assert_eq!(s.rebuilt, b.rebuilt);
                prop_assert_eq!(s.chunks_redone, b.chunks_redone);
                prop_assert_eq!(s.entries_redone, b.entries_redone);
                prop_assert_eq!(
                    b.entries_redone + b.entries_cached,
                    b.total_entries
                );
            }
            // The batch left the engine bit-identical to its base state.
            prop_assert_eq!(eng.raw().to_bits(), raw0);
            prop_assert_eq!(eng.born_digest(), digest0);
            prop_assert_eq!(eng.pending_perturbations(), 0);
            prop_assert_eq!(eng.queries_batched, queries.len() as u64);
            for (a, b) in eng.positions().iter().zip(&mol.positions) {
                prop_assert_eq!(a, b);
            }
            for (a, b) in eng.charges().iter().zip(&mol.charges) {
                prop_assert_eq!(a, b);
            }
        }

        // Each query also equals its from-scratch reference (only spot
        // the serial evals — widths were proven bitwise equal above).
        for (qi, (q, s)) in queries.iter().zip(&seq).enumerate() {
            prop_assert_eq!(
                s.raw.to_bits(),
                fresh_reference(&mol, &approx, skin, q),
                "query {} differs from its fresh reference", qi
            );
        }
    }
}

/// Entry-granular recall: corrupt exactly one cached Born entry span.
/// A batch whose queries never dirty that entry must *show* the
/// corruption (the stale span feeds every fold), and a query that does
/// dirty the entry must overwrite it and return clean bits — proving
/// dirtiness tracking at entry resolution, not just chunk resolution.
#[test]
fn stale_cached_entry_is_caught_and_recomputed() {
    let approx = ApproxParams::default();
    let skin = 1.0;
    let mol = synth::protein("stale-entry", 130, 23);

    // Find a near entry and an atom inside its node range so we can aim
    // a query at exactly that entry.
    let probe = DeltaEngine::new(&mol, &approx, skin);
    let (entry_id, probe_atom) = probe.debug_near_born_entry_probe();
    drop(probe);

    // (1) Recall: an identity batch over the corrupted cache must differ
    // from the clean base bits.
    let mut eng = DeltaEngine::new(&mol, &approx, skin);
    let clean_raw = eng.raw().to_bits();
    eng.debug_corrupt_cached_born_entry(entry_id, 1e-3);
    let stale = eng.apply_batch(&[Perturbation::default()], None);
    assert_ne!(
        stale[0].raw.to_bits(),
        clean_raw,
        "a stale cached entry span must be visible to the harness"
    );

    // (2) Repair: a query moving an atom covered by that entry marks it
    // dirty, recomputes the span, and bit-matches the uncorrupted
    // engine's answer to the same query.
    let q = Perturbation::default().move_atom(
        probe_atom,
        mol.positions[probe_atom] + Vec3::new(0.05, 0.0, 0.0),
    );
    let mut clean_eng = DeltaEngine::new(&mol, &approx, skin);
    let want = clean_eng.apply_batch(std::slice::from_ref(&q), None);
    // `eng` still carries the corrupted span from (1) — but the query
    // dirties exactly that entry... along with possibly more entries in
    // other chunks; what matters is the corrupted one is among them.
    let eval = eng.apply_perturbation(&q, None);
    let got_born_digest = eng.born_digest();
    let mut fresh_clean = DeltaEngine::new(&mol, &approx, skin);
    let _ = fresh_clean.apply_perturbation(&q, None);
    if eval.raw.to_bits() == want[0].raw.to_bits() {
        // The corrupted entry was recomputed: Born digests agree too.
        assert_eq!(got_born_digest, fresh_clean.born_digest());
    } else {
        // If bits still differ, the corrupted entry must NOT have been
        // in the dirty set — which contradicts the coverage index
        // construction (the moved atom is inside the entry's node
        // range). Fail loudly.
        panic!(
            "query moving atom {probe_atom} (inside entry {entry_id}'s node range) \
             did not recompute the corrupted entry"
        );
    }
}

/// Batched queries on a pooled engine keep the FT-free contract: no
/// recovered units on a healthy pool, and bits equal the serial batch.
#[test]
fn pooled_batch_is_clean_and_bit_identical() {
    let approx = ApproxParams::default();
    let mol = synth::protein("batchpool", 140, 31);
    let mut rng = 7u64;
    let queries = mixed_batch(&mol, 0.8, 5, 3, 1, &mut rng);
    let mut serial = DeltaEngine::new(&mol, &approx, 0.8);
    let mut pooled = DeltaEngine::new(&mol, &approx, 0.8);
    let pool = WorkStealingPool::new(4);
    let bs = serial.apply_batch(&queries, None);
    let bp = pooled.apply_batch(&queries, Some(&pool));
    for (s, p) in bs.iter().zip(&bp) {
        assert_eq!(s.raw.to_bits(), p.raw.to_bits());
        assert_eq!(p.recovered_chunks, 0, "healthy pool must not recover");
    }
    assert_eq!(serial.born_digest(), pooled.born_digest());
}

/// The reference semantics: a sequential apply → revert loop.
fn sequential(eng: &mut DeltaEngine, qs: &[Perturbation]) -> Vec<DeltaEval> {
    qs.iter()
        .map(|q| {
            let e = eng.apply_perturbation(q, None);
            assert!(eng.revert(None));
            e
        })
        .collect()
}

#[test]
fn boundary_crossing_query_falls_back_and_leaves_base_intact() {
    let approx = ApproxParams::default();
    let skin = 0.4;
    let m = synth::protein("batch", 100, 53);
    let mut eng = DeltaEngine::new(&m, &approx, skin);
    let raw0 = eng.raw();
    let crossing = Perturbation::default().move_atom(8, m.positions[8] + Vec3::new(1.5, 0.0, 0.0));
    let small = Perturbation::default().move_atom(30, m.positions[30] + Vec3::new(0.05, 0.0, 0.0));
    let qs = vec![small.clone(), crossing, small];
    let seq = sequential(&mut eng, &qs);
    let bat = eng.apply_batch(&qs, None);
    assert!(bat[1].rebuilt, "the crossing query must rebuild");
    for (s, b) in seq.iter().zip(&bat) {
        assert_eq!(s.raw.to_bits(), b.raw.to_bits());
        assert_eq!(s.rebuilt, b.rebuilt);
    }
    assert_eq!(eng.raw().to_bits(), raw0.to_bits());
    assert_eq!(eng.pending_perturbations(), 0);
}

#[test]
fn duplicate_atom_writes_resolve_last_wins() {
    let approx = ApproxParams::default();
    let m = synth::protein("batch", 90, 59);
    let mut eng = DeltaEngine::new(&m, &approx, 1.0);
    // One query moving the same atom twice and charging it twice: both
    // resolve last-wins, and the batch restores the base values.
    let q = Perturbation::default()
        .move_atom(12, m.positions[12] + Vec3::new(0.3, 0.0, 0.0))
        .move_atom(12, m.positions[12] + Vec3::new(0.0, 0.1, 0.0))
        .set_charge(12, 2.0)
        .set_charge(12, -1.0);
    let qs = vec![q];
    let seq = sequential(&mut eng, &qs);
    let bat = eng.apply_batch(&qs, None);
    assert_eq!(seq[0].raw.to_bits(), bat[0].raw.to_bits());
    assert_eq!(seq[0].max_disp.to_bits(), bat[0].max_disp.to_bits());
    assert_eq!(eng.positions()[12], m.positions[12], "base must be restored");
    assert_eq!(eng.charges()[12], m.charges[12]);
}

#[test]
fn empty_batch_and_empty_query_are_identities() {
    let approx = ApproxParams::default();
    let m = synth::protein("batch", 80, 61);
    let mut eng = DeltaEngine::new(&m, &approx, 0.5);
    let raw0 = eng.raw();
    assert!(eng.apply_batch(&[], None).is_empty());
    let bat = eng.apply_batch(&[Perturbation::default()], None);
    assert_eq!(bat[0].raw.to_bits(), raw0.to_bits());
    assert_eq!(bat[0].entries_redone, 0);
    assert_eq!(bat[0].chunks_redone, 0);
}
