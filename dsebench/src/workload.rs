//! The named workloads and how each one is set up.

use mcmap_benchmarks::Benchmark;
use mcmap_core::{DseConfig, ObjectiveMode};
use mcmap_ga::GaConfig;
use std::time::Instant;

/// The system a workload explores.
#[derive(Debug, Clone, Copy)]
pub enum System {
    /// The paper's `dt-med` benchmark (fixed; the seed only drives the GA).
    DtMed,
    /// A generated fleet preset (the seed drives the generator and the GA).
    Fleet(&'static str),
}

/// One named workload: a system and the DSE budget run on it.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub system: System,
    pub population: usize,
    pub generations: usize,
    /// Evaluation threads requested (capped at the host's core count).
    pub threads: usize,
    /// Run the §5.2 "rescued by dropping" audit re-analysis per candidate.
    pub audit: bool,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "dtmed-ga",
        system: System::DtMed,
        population: 128,
        generations: 75,
        threads: 2,
        audit: false,
    },
    Workload {
        name: "fleetmed-dse",
        system: System::Fleet("fleet-med"),
        population: 8,
        generations: 2,
        threads: 2,
        audit: false,
    },
    Workload {
        name: "fleetsmall-audit",
        system: System::Fleet("fleet-small"),
        population: 16,
        generations: 6,
        threads: 1,
        audit: true,
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The benchmark key the CLI knows this system by.
    pub fn key(&self) -> &'static str {
        match self.system {
            System::DtMed => "dt-med",
            System::Fleet(preset) => preset,
        }
    }

    /// Candidates one exploration submits: the initial population plus
    /// one offspring batch per generation (cache hits included).
    pub fn candidates(&self) -> usize {
        self.population.max(2) * (self.generations + 1)
    }

    /// Threads actually used on this host: never more than its cores.
    pub fn threads_on_host(&self) -> usize {
        self.threads.min(host_cores()).max(1)
    }

    /// Builds the system for `seed`.
    pub fn build(&self, seed: u64) -> Benchmark {
        match self.system {
            System::DtMed => mcmap_benchmarks::dt_med(),
            System::Fleet(preset) => mcmap_benchmarks::fleet_benchmark(preset, seed)
                .expect("workload presets are known fleet presets"),
        }
    }

    /// The exploration configuration `mcmap_cli dse` builds for this
    /// system, with this workload's budget, threads and audit flag.
    pub fn config(&self, b: &Benchmark, seed: u64, threads: usize) -> DseConfig {
        let mut cfg = DseConfig {
            ga: GaConfig {
                population: self.population,
                generations: self.generations,
                seed,
                threads,
                ..GaConfig::default()
            },
            objectives: ObjectiveMode::PowerService,
            policies: Some(b.policies.clone()),
            repair_iters: 80,
            audit: self.audit,
            ..DseConfig::default()
        };
        if let System::Fleet(preset) = self.system {
            let fleet = mcmap_benchmarks::fleet_preset(preset).expect("known fleet preset");
            cfg.max_reexec = fleet.max_reexec;
            cfg.max_replicas = fleet.max_replicas;
        }
        cfg
    }

    /// Sets up the exploration run with `seed` at least `min_reps` times
    /// and for at least `min_secs` seconds, adds each set-up's timings to
    /// `samples`, and returns the last system and configuration.
    pub fn setup(
        &self,
        seed: u64,
        min_reps: usize,
        min_secs: f64,
        samples: &mut SetupSamples,
    ) -> (Benchmark, DseConfig) {
        let threads = self.threads_on_host();
        let start = Instant::now();
        let mut reps = 0;
        loop {
            let t = Instant::now();
            let bench = std::hint::black_box(self.build(seed));
            samples.generate.push(t.elapsed().as_secs_f64());
            let cfg = std::hint::black_box(self.config(&bench, seed, threads));
            samples.total.push(t.elapsed().as_secs_f64());
            reps += 1;
            if reps >= min_reps && start.elapsed().as_secs_f64() >= min_secs {
                return (bench, cfg);
            }
        }
    }

    /// One line of workload facts.
    pub fn facts(&self, seed: u64) -> String {
        format!(
            "workload {} key={} population={} generations={} threads={} audit={} seed={}",
            self.name,
            self.key(),
            self.population,
            self.generations,
            self.threads_on_host(),
            self.audit,
            seed
        )
    }
}

/// Set-up timings in seconds: generating a system, and generating it plus
/// building its configuration.
#[derive(Debug, Default)]
pub struct SetupSamples {
    pub generate: Vec<f64>,
    pub total: Vec<f64>,
}

/// The seed of the `i`-th exploration of a run with `seed`: runs with
/// different seeds explore disjoint seed ranges.
pub fn sub_seed(seed: u64, i: u64) -> u64 {
    seed.wrapping_mul(1000).wrapping_add(i)
}

/// The host's core count.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
