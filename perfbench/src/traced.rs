//! The traced run: the workload's own specs replayed through the public
//! entry points of each layer, in-process, with a span around every call.
//! Nothing inside the program is instrumented; the spans are recorded by
//! this file around the calls it makes.

use crate::stats::{mean_self_ns, ratio, self_times, Recorder};
use crate::workload::{Plan, Workload};
use std::path::Path;
use std::sync::Arc;
use tracto::gpu_sim::{MultiGpu, TimingLedger};
use tracto::pipeline::{Backend, Pipeline};
use tracto::tracking::probabilistic::seeds_from_mask;
use tracto_proto::{
    lengths_digest, write_frame, Event, FrameBuf, JobState, Outcome, Request, Response,
};
use tracto_serve::{
    materialize_dataset, run_batch_streamed, sample_key, BatchJob, DiskSampleCache, JobJournal,
    JobSpec, SampleCache, SampleKey, ServiceConfig, Work,
};
use tracto_trace::Tracer;

/// Calls per span for the layers whose single call is too short to time.
const CODEC_REPS: u32 = 200;
const CACHE_GET_REPS: u32 = 200;
const CACHE_INSERT_REPS: u32 = 20;
const DISK_PUT_REPS: u32 = 3;
const JOURNAL_REPS: u32 = 10;

/// `(recipe index, lengths digest, total steps)` of one replayed job.
pub type Replayed = (usize, u64, u64);

/// Per-layer numbers from the traced run, host clock unless named `sim`.
#[derive(Debug, Default)]
pub struct Layers {
    pub materialize_ms: f64,
    pub step1_ms: f64,
    pub ns_per_voxel_loop: f64,
    pub mcmc_sim_ms: f64,
    pub batch_ms: f64,
    pub ns_per_step: f64,
    pub host_us_per_launch: f64,
    pub sim_kernel_ms: f64,
    pub sim_transfer_ms: f64,
    pub sim_reduction_ms: f64,
    pub cache_get_us: f64,
    pub cache_insert_us: f64,
    pub disk_put_ms: f64,
    pub journal_append_us: f64,
    pub codec_us: f64,
}

pub struct Replay {
    pub layers: Layers,
    /// What `Pipeline::run` produced for each replayed recipe.
    pub pipeline: Vec<Replayed>,
    /// What `run_batch_streamed` produced for the same recipes.
    pub batch: Vec<Replayed>,
    pub spans: Recorder,
}

/// The recipes to replay, grouped as the server batches them.
fn batches(plan: &Plan) -> Vec<Vec<usize>> {
    match plan.workload {
        // The first two distinct recipes of the job list, each tracked
        // alone (warm_tracking has only one).
        Workload::ColdMcmc | Workload::WarmTracking => {
            let mut first: Vec<usize> = Vec::with_capacity(2);
            for &j in &plan.jobs {
                if first.len() < 2 && !first.contains(&j) {
                    first.push(j);
                }
            }
            first.into_iter().map(|j| vec![j]).collect()
        }
        // The whole working set: one full batch.
        Workload::WarmMany => vec![(0..plan.recipes.len()).collect()],
    }
}

fn err(what: &str) -> impl Fn(tracto_trace::TractoError) -> String + '_ {
    move |e| format!("{what}: {e}")
}

pub fn replay(plan: &Plan, dir: &Path) -> Result<Replay, String> {
    let service = ServiceConfig::default();
    let backend = Backend::GpuSim(service.device.clone());
    let cache = SampleCache::new(service.cache_bytes);
    let disk = DiskSampleCache::open(&dir.join("disk")).map_err(err("open disk cache"))?;
    let (journal, _) =
        JobJournal::open(&dir.join("journal"), Tracer::disabled()).map_err(err("open journal"))?;
    let mut rec = Recorder::new();
    let mut pipeline = Vec::new();
    let mut batch = Vec::new();
    let mut step1_per_voxel_loop = Vec::new();
    let mut mcmc_ledgers: Vec<TimingLedger> = Vec::new();
    let mut batch_ledger = TimingLedger::default();
    let (mut batch_ns, mut batch_steps, mut host_ns, mut launches) = (0f64, 0u64, 0f64, 0u64);
    let mut jobs_tracked = 0usize;

    for (b, group) in batches(plan).into_iter().enumerate() {
        let mut jobs = Vec::with_capacity(group.len());
        for &r in &group {
            let wire = &plan.recipes[r];
            let id = r as u64;
            let root = rec.open("replay.job", None, id);
            let dataset = rec
                .time("phantom.materialize", Some(root), id, 1, |_| {
                    materialize_dataset(&wire.dataset)
                })
                .map_err(err("materialize"))?;
            let spec = rec
                .time("serve.spec.from_wire", Some(root), id, 1, |_| {
                    JobSpec::from_wire(wire)
                })
                .map_err(err("from_wire"))?;
            let Work::Track { config, .. } = spec.work else {
                return Err("replayed spec is not a track job".into());
            };

            let run = rec.open("core.pipeline_run", Some(root), id);
            let out = Pipeline::new(config.clone()).run(&dataset, backend.clone());
            rec.close(run);
            // Pipeline::run times its two steps itself; they become child
            // spans at the start and the end of the call.
            let (start, end) = (rec.spans[run].start, rec.spans[run].end);
            let step1_ns = out.mcmc_wall.as_nanos() as u64;
            let step2_ns = out.tracking_wall.as_nanos() as u64;
            rec.record("mcmc.step1", run, id, start, start + step1_ns);
            rec.record("tracking.pipeline_step2", run, id, end - step2_ns, end);
            let loops =
                config.chain.num_burnin + config.chain.num_samples * config.chain.sample_interval;
            step1_per_voxel_loop
                .push(step1_ns as f64 / (dataset.wm_mask.count() as f64 * f64::from(loops)));
            mcmc_ledgers.push(out.mcmc_ledger.ok_or("GpuSim run without an MCMC ledger")?);
            let digest = lengths_digest(&out.tracking.lengths_by_sample);
            pipeline.push((r, digest, out.tracking.total_steps));

            let samples = Arc::new(out.samples);
            let key = sample_key(&dataset, &config.prior, &config.chain, config.seed);
            let cost_ms = step1_ns as f64 / 1e6;
            rec.time(
                "serve.cache.insert",
                Some(root),
                id,
                CACHE_INSERT_REPS,
                |k| {
                    let key = SampleKey(key.0.wrapping_add(u64::from(k)));
                    cache.insert_with_cost(key, Arc::clone(&samples), cost_ms)
                },
            );
            let hit = rec.time("serve.cache.get", Some(root), id, CACHE_GET_REPS, |_| {
                cache.get(key).is_some()
            });
            if !hit {
                return Err("sample cache missed a key it was just given".into());
            }
            let mut put = Ok(());
            rec.time("serve.cache.disk_put", Some(root), id, DISK_PUT_REPS, |k| {
                let key = SampleKey(key.0.wrapping_add(u64::from(k)));
                if put.is_ok() {
                    put = disk.put(key, &samples);
                }
            });
            put.map_err(err("disk put"))?;
            rec.time("serve.journal.append", Some(root), id, JOURNAL_REPS, |k| {
                let job = id * 1000 + u64::from(k) + 1;
                journal.submitted(job, wire);
                journal.completed(job);
            });
            let terminal = Response::Event(Event {
                seq: id,
                job: id,
                kind: "completed".into(),
                state: JobState::Done(Outcome::Track {
                    total_steps: out.tracking.total_steps,
                    streamlines: 0,
                    lengths_digest: digest,
                    cache_hit: true,
                    batch_jobs: group.len() as u64,
                    batch_lanes: 0,
                }),
            });
            let mut codec = Ok(());
            rec.time("proto.codec", Some(root), id, CODEC_REPS, |_| {
                if codec.is_ok() {
                    codec = codec_round_trip(&Request::Submit(Box::new(wire.clone())), &terminal);
                }
            });
            codec?;
            rec.close(root);

            jobs.push(BatchJob {
                samples,
                params: config.tracking,
                seeds: seeds_from_mask(&dataset.truth.fiber_mask()),
                mask: None,
                jitter: config.jitter,
                run_seed: config.seed,
                record_visits: config.record_connectivity,
            });
        }

        let mut multi = MultiGpu::new(service.device.clone(), service.devices);
        let root = rec.open("replay.batch", None, b as u64);
        let run = rec.open("tracking.run_batch", Some(root), b as u64);
        let report = run_batch_streamed(&mut multi, &jobs, &service.strategy, service.streams)
            .map_err(err("run_batch_streamed"))?;
        rec.close(run);
        rec.close(root);
        let wall_ns = rec.spans[run].end - rec.spans[run].start;
        batch_ns += wall_ns as f64;
        host_ns += wall_ns as f64 - report.ledger.wall_kernel_s * 1e9;
        launches += report.launches;
        add_ledger(&mut batch_ledger, &report.ledger);
        for (&r, out) in group.iter().zip(&report.per_job) {
            batch_steps += out.total_steps;
            batch.push((r, lengths_digest(&out.lengths_by_sample), out.total_steps));
        }
        jobs_tracked += group.len();
    }

    let selfs = self_times(&rec.spans);
    let mean_ns = |name: &str| mean_self_ns(&rec.spans, &selfs, name);
    let replayed = mcmc_ledgers.len() as f64;
    let mut per_job = batch_ledger;
    scale_ledger(&mut per_job, 1.0 / jobs_tracked as f64);
    if !plan.workload.warm() {
        // A cold job runs Step 1 as well; a warm job reads it from cache.
        let mut mcmc = TimingLedger::default();
        mcmc_ledgers.iter().for_each(|l| add_ledger(&mut mcmc, l));
        scale_ledger(&mut mcmc, 1.0 / replayed);
        add_ledger(&mut per_job, &mcmc);
    }
    let layers = Layers {
        materialize_ms: mean_ns("phantom.materialize") / 1e6,
        step1_ms: mean_ns("mcmc.step1") / 1e6,
        ns_per_voxel_loop: ratio(step1_per_voxel_loop.iter().sum(), replayed),
        mcmc_sim_ms: ratio(
            mcmc_ledgers.iter().map(|l| l.total_s() * 1e3).sum(),
            replayed,
        ),
        batch_ms: mean_ns("tracking.run_batch") / 1e6,
        ns_per_step: ratio(batch_ns, batch_steps as f64),
        host_us_per_launch: ratio(host_ns / 1e3, launches as f64),
        sim_kernel_ms: per_job.kernel_s * 1e3,
        sim_transfer_ms: per_job.transfer_s * 1e3,
        sim_reduction_ms: per_job.reduction_s * 1e3,
        cache_get_us: mean_ns("serve.cache.get") / 1e3,
        cache_insert_us: mean_ns("serve.cache.insert") / 1e3,
        disk_put_ms: mean_ns("serve.cache.disk_put") / 1e6,
        journal_append_us: mean_ns("serve.journal.append") / 1e3,
        codec_us: mean_ns("proto.codec") / 1e3,
    };
    Ok(Replay {
        layers,
        pipeline,
        batch,
        spans: rec,
    })
}

/// Encode, frame, unframe and decode one Submit request and one terminal
/// event, as the client and the reactor do for every job.
fn codec_round_trip(request: &Request, terminal: &Response) -> Result<(), String> {
    let mut wire = Vec::new();
    write_frame(&mut wire, &request.encode()).map_err(err("frame submit"))?;
    write_frame(&mut wire, &terminal.encode()).map_err(err("frame event"))?;
    let mut frames = FrameBuf::new();
    frames.extend(&wire);
    let submit = frames
        .next_frame()
        .map_err(err("unframe"))?
        .ok_or("no submit frame")?;
    Request::decode(&submit).map_err(err("decode submit"))?;
    let event = frames
        .next_frame()
        .map_err(err("unframe"))?
        .ok_or("no event frame")?;
    Response::decode(&event).map_err(err("decode event"))?;
    Ok(())
}

fn add_ledger(into: &mut TimingLedger, l: &TimingLedger) {
    into.kernel_s += l.kernel_s;
    into.transfer_s += l.transfer_s;
    into.reduction_s += l.reduction_s;
}

fn scale_ledger(l: &mut TimingLedger, by: f64) {
    l.kernel_s *= by;
    l.transfer_s *= by;
    l.reduction_s *= by;
}
