//! Workload inputs as a pure function of the `--seed` argument.
//!
//! Every molecule, pose and perturbation query is drawn from a splitmix64
//! stream keyed by `(seed, stream, index)`, so one seed always yields the
//! same inputs and the program under test only ever sees the generated
//! values. [`Inputs::encode`] serialises a prefix of every stream to bytes
//! so the determinism tests can compare inputs byte for byte.

use polaroct_core::Perturbation;
use polaroct_geom::transform::Rotation;
use polaroct_geom::{Transform, Vec3};
use polaroct_molecule::{synth, Molecule};

/// Verlet skin (Å) of the perturbation engine.
pub const SKIN: f64 = 0.8;
/// Largest per-component move (Å): a moved atom stays within
/// `AMPLITUDE·√3 ≈ 0.35 Å < SKIN/2` of its base position, so no query
/// crosses the rebuild boundary.
pub const AMPLITUDE: f64 = 0.2;
/// Points on the golden-angle pose sphere of `docking_poses`.
const POSE_SPHERE: usize = 1024;
/// Step between the sphere points of consecutive poses. Odd, hence
/// coprime with [`POSE_SPHERE`]: 1024 consecutive poses visit every point
/// once, and any few dozen of them spread over the whole sphere instead
/// of one latitude band (pose cost depends on direction).
const POSE_STRIDE: usize = 633;
/// Seed of the accuracy panel: the inputs `err_pct` is measured on are
/// the same for every `--seed`, so the metric is a property of the
/// program alone.
const PANEL_SEED: u64 = 0x5EED_0ACC;

/// Input sizes: `Full` is the benchmark proper, `Tiny` the smoke-test
/// configuration that covers the same code paths in well under a second
/// per evaluation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

impl Size {
    pub fn parse(s: &str) -> Option<Size> {
        match s {
            "full" => Some(Size::Full),
            "tiny" => Some(Size::Tiny),
            _ => None,
        }
    }

    /// Atoms of each `protein_oneshot` / `fig4_proc` molecule and of the
    /// `perturb_scan` protein.
    fn oneshot_atoms(self) -> usize {
        match self {
            Size::Full => 8_000,
            Size::Tiny => 300,
        }
    }

    /// Atoms of the `docking_poses` receptor.
    fn receptor_atoms(self) -> usize {
        match self {
            Size::Full => 2_000,
            Size::Tiny => 200,
        }
    }

    /// Atoms of the `docking_poses` ligand.
    fn ligand_atoms(self) -> usize {
        match self {
            Size::Full => 40,
            Size::Tiny => 12,
        }
    }
}

/// Atoms moved by one `perturb_scan` query.
pub const MOVES_PER_QUERY: usize = 4;

/// splitmix64 step.
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

/// Independent streams of one seed.
#[derive(Clone, Copy)]
enum Stream {
    Oneshot = 1,
    Receptor = 2,
    Ligand = 3,
    Pose = 4,
    Perturb = 5,
    Query = 6,
}

/// The generated inputs of every workload for one seed.
#[derive(Clone, Copy, Debug)]
pub struct Inputs {
    seed: u64,
    size: Size,
}

impl Inputs {
    pub fn new(seed: u64, size: Size) -> Inputs {
        Inputs { seed, size }
    }

    /// The accuracy panel: the inputs of [`PANEL_SEED`], at this size.
    pub fn panel(&self) -> Inputs {
        Inputs::new(PANEL_SEED, self.size)
    }

    /// Fresh state for item `index` of `stream`.
    fn state(&self, stream: Stream, index: u64) -> u64 {
        let mut s = self.seed ^ ((stream as u64) << 56);
        let a = mix(&mut s);
        let mut s = a ^ index.wrapping_mul(0xd134_2543_de82_ef95);
        mix(&mut s)
    }

    /// Molecule `i` of the one-shot stream (`protein_oneshot`,
    /// `fig4_proc`): a ZDock-like synthetic protein with its own seed.
    pub fn oneshot(&self, i: usize) -> Molecule {
        let seed = self.state(Stream::Oneshot, i as u64);
        synth::protein(format!("oneshot-{i}"), self.size.oneshot_atoms(), seed)
    }

    /// The `docking_poses` receptor. Like the ligand and the
    /// `perturb_scan` protein it is the same for every seed, so set-up
    /// does the same work in every run; the poses and queries vary.
    pub fn receptor(&self) -> Molecule {
        let seed = self.panel().state(Stream::Receptor, 0);
        synth::protein("receptor", self.size.receptor_atoms(), seed)
    }

    pub fn ligand(&self) -> Molecule {
        let seed = self.panel().state(Stream::Ligand, 0);
        synth::ligand("ligand", self.size.ligand_atoms(), seed)
    }

    /// Complex `k` of `docking_poses`: the receptor plus the ligand at a
    /// golden-angle placement with its own rotation, as in
    /// `examples/docking_scan.rs`. The sphere offset and the rotation
    /// angles come from the seed; consecutive poses are
    /// [`POSE_STRIDE`] points apart on the sphere.
    pub fn complex(&self, receptor: &Molecule, ligand: &Molecule, k: usize) -> Molecule {
        let mut s = self.state(Stream::Pose, k as u64);
        let offset = (mix(&mut self.state(Stream::Pose, u64::MAX)) % POSE_SPHERE as u64) as usize;
        let slot = (offset + k * POSE_STRIDE) % POSE_SPHERE;
        let golden = std::f64::consts::PI * (3.0 - 5.0f64.sqrt());
        let z = 1.0 - 2.0 * (slot as f64 + 0.5) / POSE_SPHERE as f64;
        let rho = (1.0 - z * z).sqrt();
        let phi = golden * slot as f64;
        let dir = Vec3::new(rho * phi.cos(), rho * phi.sin(), z);
        let r_dock = receptor.bbox().circumradius() + 4.0;
        let pi = std::f64::consts::PI;
        let rot = Rotation::from_euler_zyx(
            pi * unit(&mut s),
            0.5 * pi * unit(&mut s),
            pi * unit(&mut s),
        );
        let pose = Transform::about_pivot(
            rot,
            ligand.centroid(),
            receptor.centroid() + dir * r_dock - ligand.centroid(),
        );
        let mut complex = receptor.clone();
        complex.extend_from(&ligand.transformed(&pose));
        complex.name = format!("pose-{k}");
        complex
    }

    /// The `perturb_scan` protein.
    pub fn perturb_base(&self) -> Molecule {
        let seed = self.panel().state(Stream::Perturb, 0);
        synth::protein("perturb", self.size.oneshot_atoms(), seed)
    }

    /// Query `j` of `perturb_scan`: [`MOVES_PER_QUERY`] distinct atoms
    /// moved within `SKIN/2` of their base positions and one charge set
    /// to a value in [-1, 1). Queries are independent of each other
    /// because every query is reverted before the next.
    pub fn query(&self, base: &Molecule, j: usize) -> Perturbation {
        let n = base.positions.len();
        let mut s = self.state(Stream::Query, j as u64);
        let mut p = Perturbation::default();
        let mut picked: Vec<usize> = Vec::with_capacity(MOVES_PER_QUERY);
        while picked.len() < MOVES_PER_QUERY.min(n) {
            let atom = (mix(&mut s) % n as u64) as usize;
            if picked.contains(&atom) {
                continue;
            }
            picked.push(atom);
            let d = Vec3::new(unit(&mut s), unit(&mut s), unit(&mut s)) * AMPLITUDE;
            p = p.move_atom(atom, base.positions[atom] + d);
        }
        let atom = (mix(&mut s) % n as u64) as usize;
        p.set_charge(atom, unit(&mut s))
    }

    /// Byte serialisation of the first `count` items of every stream, for
    /// the determinism tests.
    pub fn encode(&self, count: usize) -> Vec<u8> {
        let mut out = Vec::new();
        let receptor = self.receptor();
        let ligand = self.ligand();
        let base = self.perturb_base();
        for m in [&receptor, &ligand, &base] {
            encode_molecule(m, &mut out);
        }
        for i in 0..count {
            encode_molecule(&self.oneshot(i), &mut out);
            encode_molecule(&self.complex(&receptor, &ligand, i), &mut out);
            let q = self.query(&base, i);
            for (a, to) in &q.moves {
                out.extend_from_slice(&(*a as u64).to_le_bytes());
                push_vec3(*to, &mut out);
            }
            for (a, c) in &q.charges {
                out.extend_from_slice(&(*a as u64).to_le_bytes());
                out.extend_from_slice(&c.to_le_bytes());
            }
        }
        out
    }
}

fn push_vec3(v: Vec3, out: &mut Vec<u8>) {
    for c in [v.x, v.y, v.z] {
        out.extend_from_slice(&c.to_le_bytes());
    }
}

fn encode_molecule(m: &Molecule, out: &mut Vec<u8>) {
    out.extend_from_slice(&(m.positions.len() as u64).to_le_bytes());
    for i in 0..m.positions.len() {
        push_vec3(m.positions[i], out);
        out.extend_from_slice(&m.radii[i].to_le_bytes());
        out.extend_from_slice(&m.charges[i].to_le_bytes());
    }
}
