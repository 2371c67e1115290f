//! Set-up of the system under test (data, sample catalog, single engine),
//! of the sharded engine the per-layer run compares it with, and of the
//! TCP server in front of either.

use crate::gen::{dataset_config, Rng, LAYER_RATES};
use crate::stats::timed;
use crate::trace::span;
use flashp_core::{EngineConfig, FlashPEngine, SampleCatalog, ShardConfig, ShardedEngine};
use flashp_server::{Backend, ServerConfig, ServerHandle};
use flashp_storage::TimeSeriesTable;
use std::sync::Arc;

/// The sharded layout the per-layer run measures: 16 virtual slots over 2
/// shards.
pub const SHARDS: ShardConfig = ShardConfig { shards: 2, slots: 16 };
/// Server worker threads, one per core of the 2-core reference host.
pub const WORKERS: usize = 2;

#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Shape {
    Single,
    Sharded,
}

pub fn engine_config(seed: u64) -> EngineConfig {
    EngineConfig {
        layer_rates: LAYER_RATES.to_vec(),
        default_rate: LAYER_RATES[1],
        seed: Rng::new(seed).fork(0xC0F1).next_u64(),
        ..Default::default()
    }
}

/// One set-up system: its table, its engine and what set-up cost.
pub struct System {
    pub table: Arc<TimeSeriesTable>,
    pub backend: Backend,
    pub catalog_bytes: usize,
    pub generate_s: f64,
    pub build_s: f64,
}

impl System {
    pub fn setup_s(&self) -> f64 {
        self.generate_s + self.build_s
    }

    pub fn space_ratio(&self) -> f64 {
        self.catalog_bytes as f64 / self.table.byte_size() as f64
    }
}

pub fn generate(seed: u64) -> (Arc<TimeSeriesTable>, f64) {
    let (ds, us) =
        timed(|| span("data.generate", 0, || flashp_data::generate_dataset(&dataset_config(seed))));
    (Arc::new(ds.expect("dataset config is valid").table), us / 1e6)
}

/// Build an engine of `shape` over `table`: the one place the benchmark
/// chooses between the single and the sharded backend.
pub fn build(table: &Arc<TimeSeriesTable>, shape: Shape, seed: u64) -> (Backend, usize, f64) {
    let config = engine_config(seed);
    let ((backend, bytes), us) = timed(|| {
        span("sampling.catalog_build", 0, || match shape {
            Shape::Single => {
                let catalog = SampleCatalog::build(table, &config).expect("catalog builds");
                let bytes = catalog.stats().total_bytes;
                (Backend::Single(FlashPEngine::with_catalog(table.clone(), config, catalog)), bytes)
            }
            Shape::Sharded => {
                let engine = ShardedEngine::with_catalogs(table, config, SHARDS)
                    .expect("sharded engine builds");
                let bytes = engine
                    .snapshot()
                    .slots()
                    .iter()
                    .map(|s| s.catalog().map_or(0, |c| c.stats().total_bytes))
                    .sum();
                (Backend::Sharded(engine), bytes)
            }
        })
    });
    (backend, bytes, us / 1e6)
}

/// The system every workload runs on: a single engine over the seed's
/// table.
pub fn setup(seed: u64) -> System {
    let (table, generate_s) = generate(seed);
    let (backend, catalog_bytes, build_s) = build(&table, Shape::Single, seed);
    System { table, backend, catalog_bytes, generate_s, build_s }
}

pub fn serve(backend: &Backend) -> ServerHandle {
    flashp_server::serve_backend(
        backend.clone(),
        ServerConfig { workers: WORKERS, queue_depth: 64, ..Default::default() },
    )
    .expect("server binds a loopback port")
}

/// The single engine behind a backend, for calls only it offers.
pub fn single(backend: &Backend) -> &FlashPEngine {
    match backend {
        Backend::Single(e) => e,
        Backend::Sharded(_) => panic!("this probe needs a single engine"),
    }
}
