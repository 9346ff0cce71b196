//! End-to-end properties of the serving layer: a ≥1k-job mixed-tenant
//! soak through the wire format whose every result is bit-for-bit equal
//! to the synchronous `run_batch` answer, served result frames pinned by
//! digest at one worker and at four, weighted-fair scheduling that never
//! starves a tenant under a saturating competitor, and typed
//! admission-control rejections — all through the public service API.

use sparseflex::formats::{fnv1a, CooMatrix, DataType, MatrixData, MatrixFormat, SparseMatrix};
use sparseflex::serve::{
    wire, FlexService, Priority, ServeConfig, ServeError, SubmitError, WireError, WireJob,
};
use sparseflex::system::{BatchJob, Dataflow, FlexSystem};
use sparseflex::workloads::synth::random_matrix;
use std::time::{Duration, Instant};

/// The system configuration used on both sides of the soak comparison.
fn soak_system() -> FlexSystem {
    let mut sys = FlexSystem::default();
    sys.sage.accel.num_pes = 8;
    sys.sage.accel.pe_buffer_elems = 64;
    sys
}

/// A deterministic mixed-tenant job stream: `count` jobs over a dozen
/// shapes, four tenants, all three priorities, two wire formats.
fn soak_jobs(count: usize) -> Vec<WireJob> {
    let shapes = [
        (8usize, 10usize, 6usize, 24usize, 20usize),
        (12, 8, 10, 30, 26),
        (10, 14, 8, 34, 40),
        (14, 10, 12, 44, 30),
        (9, 9, 9, 20, 20),
        (16, 8, 8, 36, 18),
        (8, 16, 10, 28, 48),
        (11, 12, 13, 32, 38),
        (13, 7, 9, 26, 16),
        (7, 13, 11, 22, 42),
        (10, 10, 10, 30, 30),
        (15, 11, 7, 48, 24),
    ];
    (0..count)
        .map(|i| {
            let (m, k, n, nnz_a, nnz_b) = shapes[i % shapes.len()];
            let a = random_matrix(m, k, nnz_a, 10_000 + (i % shapes.len()) as u64);
            let b = random_matrix(k, n, nnz_b, 20_000 + (i % shapes.len()) as u64);
            WireJob {
                tenant: (i % 4) as u32 + 1,
                priority: match i % 3 {
                    0 => Priority::High,
                    1 => Priority::Normal,
                    _ => Priority::Low,
                },
                dtype: if i % 2 == 0 {
                    DataType::Fp32
                } else {
                    DataType::Int8
                },
                a: MatrixData::encode(&a, &MatrixFormat::Csr).unwrap(),
                b: MatrixData::encode(&b, &MatrixFormat::Zvc).unwrap(),
            }
        })
        .collect()
}

#[test]
fn soak_1k_wire_jobs_match_synchronous_run_batch_bit_for_bit() {
    let jobs = soak_jobs(1_008);

    // Synchronous reference: the same jobs through `run_batch` on an
    // identically-configured system.
    let reference = soak_system().run_batch(
        &jobs
            .iter()
            .map(|j| BatchJob::spgemm(j.a.to_coo(), j.b.to_coo(), j.dtype))
            .collect::<Vec<_>>(),
    );

    // Service side: every job travels as a wire frame.
    let service = FlexService::start(
        soak_system(),
        ServeConfig {
            workers: 4,
            queue_capacity: jobs.len() + 8,
            tenant_inflight_cap: jobs.len() + 8,
            ..ServeConfig::default()
        },
    )
    .expect("service starts");
    let tickets: Vec<_> = jobs
        .iter()
        .map(|j| {
            let frame = wire::encode_job(j).unwrap();
            service.submit_frame(&frame).unwrap()
        })
        .collect();

    for (i, ticket) in tickets.into_iter().enumerate() {
        let outcome = ticket.wait().expect("soak job completes");
        let served = wire::decode_result(&outcome.result_frame).unwrap();
        let expected = reference.results[i]
            .as_ref()
            .expect("reference job succeeds");
        // Bit-for-bit: compare IEEE-754 bit patterns, not float equality.
        let served_bits: Vec<u64> = served.output.data().iter().map(|v| v.to_bits()).collect();
        let expected_bits: Vec<u64> = expected.output.data().iter().map(|v| v.to_bits()).collect();
        assert_eq!(served.output.rows(), expected.output.rows(), "job {i}");
        assert_eq!(served.output.cols(), expected.output.cols(), "job {i}");
        assert_eq!(
            served_bits, expected_bits,
            "job {i} diverged from run_batch"
        );
    }

    let stats = service.stats();
    assert_eq!(stats.jobs_completed, jobs.len() as u64);
    assert_eq!(stats.jobs_rejected, 0);
    assert_eq!(
        stats.cache.hits + stats.cache.misses,
        jobs.len() as u64,
        "every job plans exactly once"
    );
    let by_tenant: u64 = stats.tenants.iter().map(|t| t.completed).sum();
    assert_eq!(by_tenant, jobs.len() as u64);
    for t in &stats.tenants {
        assert_eq!(t.submitted, t.completed, "tenant {} lost jobs", t.tenant);
        assert_eq!(t.rejected, 0);
    }
}

/// The served path pinned end to end: one FNV-1a digest over the result
/// frames of a seeded job mix served through `FlexService`, at one
/// worker and at four (the two must agree). Operands travel in all six
/// wire formats the benchmark serves, and the shapes run from dense-ish
/// to hypersparse on a four-PE array of 32-slot buffers, so SAGE plans
/// both dataflows. A frame holds the job id and the output bits.
#[test]
fn served_results_are_pinned_bit_for_bit() {
    let formats = [
        MatrixFormat::Csr,
        MatrixFormat::Coo,
        MatrixFormat::Csc,
        MatrixFormat::Bsr { br: 2, bc: 2 },
        MatrixFormat::Zvc,
        MatrixFormat::Rlc { run_bits: 4 },
    ];
    let shapes = [
        (24, 16, 40, 300, 400),
        (30, 40, 64, 60, 90),
        (20, 48, 32, 700, 120),
        (16, 24, 24, 120, 200),
    ];
    let system = || {
        let mut sys = FlexSystem::default();
        sys.sage.accel.num_pes = 4;
        sys.sage.accel.pe_buffer_elems = 32;
        sys
    };
    let jobs: Vec<WireJob> = (0..24usize)
        .map(|i| {
            let (m, k, n, nnz_a, nnz_b) = shapes[i % shapes.len()];
            let a = random_matrix(m, k, nnz_a, 500 + i as u64);
            let b = random_matrix(k, n, nnz_b, 600 + i as u64);
            let fb = formats[(i / formats.len() + 2 * i + 1) % formats.len()];
            WireJob {
                tenant: (i % 3) as u32 + 1,
                priority: [Priority::High, Priority::Normal, Priority::Low][i % 3],
                dtype: DataType::Fp32,
                a: MatrixData::encode(&a, &formats[i % formats.len()]).unwrap(),
                b: MatrixData::encode(&b, &fb).unwrap(),
            }
        })
        .collect();
    let planned = system().run_batch(
        &jobs
            .iter()
            .map(|j| BatchJob::spgemm(j.a.to_coo(), j.b.to_coo(), j.dtype))
            .collect::<Vec<_>>(),
    );
    let dataflows: Vec<Dataflow> = planned
        .results
        .iter()
        .map(|r| r.as_ref().expect("every job runs").plan.dataflow)
        .collect();
    assert!(dataflows.contains(&Dataflow::GustavsonSpGemm));
    assert!(dataflows.contains(&Dataflow::WeightStationary));

    let serve = |workers| {
        let service = FlexService::start(
            system(),
            ServeConfig {
                workers,
                queue_capacity: jobs.len(),
                tenant_inflight_cap: jobs.len(),
                ..ServeConfig::default()
            },
        )
        .expect("service starts");
        let tickets: Vec<_> = jobs
            .iter()
            .map(|j| service.submit_frame(&wire::encode_job(j).unwrap()).unwrap())
            .collect();
        let mut frames = Vec::new();
        for ticket in tickets {
            frames.extend(ticket.wait().expect("served job completes").result_frame);
        }
        fnv1a(&frames)
    };
    let one = serve(1);
    assert_eq!(one, serve(4), "served at 1 and 4 workers");
    assert_eq!(one, 0x7b98_bdc5_2141_7419, "a served result frame moved");
}

#[test]
fn no_tenant_starves_under_a_saturating_competitor() {
    let service = FlexService::start(
        soak_system(),
        ServeConfig {
            workers: 1,
            dispatch_batch: 1,
            queue_capacity: 256,
            tenant_inflight_cap: 256,
            start_paused: true,
            ..ServeConfig::default()
        },
    )
    .expect("service starts");
    service.register_tenant(1, 1);
    service.register_tenant(2, 1);

    let make = |tenant: u32, seed: u64| {
        let a = random_matrix(8, 10, 24, 100 + seed);
        let b = random_matrix(10, 6, 18, 200 + seed);
        WireJob {
            tenant,
            priority: Priority::Normal,
            dtype: DataType::Fp32,
            a: MatrixData::encode(&a, &MatrixFormat::Csr).unwrap(),
            b: MatrixData::encode(&b, &MatrixFormat::Coo).unwrap(),
        }
    };

    // Tenant 1 saturates the queue before tenant 2 shows up at all.
    let heavy: Vec<_> = (0..120)
        .map(|i| service.submit(make(1, i)).unwrap())
        .collect();
    let light: Vec<_> = (0..10)
        .map(|i| service.submit(make(2, 1_000 + i)).unwrap())
        .collect();
    service.resume();

    let light_seqs: Vec<u64> = light
        .into_iter()
        .map(|t| t.wait().expect("light job completes").dispatch_seq)
        .collect();
    let heavy_seqs: Vec<u64> = heavy
        .into_iter()
        .map(|t| t.wait().expect("heavy job completes").dispatch_seq)
        .collect();

    // Equal weights ⇒ stride scheduling alternates: all 10 light jobs
    // dispatch within the first ~20 slots even though 120 heavy jobs
    // were queued first. Starvation would push them past seq 120.
    let light_max = *light_seqs.iter().max().unwrap();
    assert!(
        light_max <= 48,
        "light tenant starved: last dispatch at seq {light_max}"
    );
    let light_mean = light_seqs.iter().sum::<u64>() as f64 / light_seqs.len() as f64;
    let heavy_mean = heavy_seqs.iter().sum::<u64>() as f64 / heavy_seqs.len() as f64;
    assert!(
        light_mean < heavy_mean,
        "fair interleaving should front-load the small tenant \
         (light mean {light_mean:.1}, heavy mean {heavy_mean:.1})"
    );
}

#[test]
fn admission_control_rejects_with_typed_errors_over_the_wire() {
    let service = FlexService::start(
        soak_system(),
        ServeConfig {
            workers: 1,
            queue_capacity: 3,
            tenant_inflight_cap: 1,
            start_paused: true,
            ..ServeConfig::default()
        },
    )
    .expect("service starts");
    let job = |tenant: u32| {
        let a = random_matrix(6, 8, 14, 1);
        let b = random_matrix(8, 5, 12, 2);
        wire::encode_job(&WireJob {
            tenant,
            priority: Priority::Normal,
            dtype: DataType::Fp32,
            a: MatrixData::encode(&a, &MatrixFormat::Coo).unwrap(),
            b: MatrixData::encode(&b, &MatrixFormat::Coo).unwrap(),
        })
        .unwrap()
    };

    let _t1 = service.submit_frame(&job(1)).unwrap();
    // Tenant 1 is at its in-flight cap: typed per-tenant rejection.
    match service.submit_frame(&job(1)) {
        Err(SubmitError::TenantBusy { tenant, cap, .. }) => {
            assert_eq!(tenant, 1);
            assert_eq!(cap, 1);
        }
        other => panic!("expected TenantBusy, got {other:?}"),
    }
    // Other tenants fill the bounded queue: typed backpressure.
    let _t2 = service.submit_frame(&job(2)).unwrap();
    let _t3 = service.submit_frame(&job(3)).unwrap();
    match service.submit_frame(&job(4)) {
        Err(SubmitError::QueueFull { capacity }) => assert_eq!(capacity, 3),
        other => panic!("expected QueueFull, got {other:?}"),
    }
    // Garbage frames are wire errors, not panics or silent drops.
    assert!(matches!(
        service.submit_frame(b"not a frame"),
        Err(SubmitError::Wire(_))
    ));
    // An in-process job past a frame's cell bound (2^24 cells per operand
    // and output) fails as such a frame does, before any tenant state: an
    // A of 2^62 rows, an A and then a B of 2^25 cells with a 2-cell
    // output, and a 4,096 × 8,192 output.
    for (a, b) in [
        (CooMatrix::empty(1 << 62, 4), CooMatrix::empty(4, 3)),
        (CooMatrix::empty(2, 1 << 24), CooMatrix::empty(1 << 24, 1)),
        (CooMatrix::empty(1, 1 << 24), CooMatrix::empty(1 << 24, 2)),
        (CooMatrix::empty(4096, 1), CooMatrix::empty(1, 8192)),
    ] {
        let job = WireJob {
            tenant: 5,
            priority: Priority::Normal,
            dtype: DataType::Fp32,
            a: MatrixData::Coo(a),
            b: MatrixData::Coo(b),
        };
        assert_eq!(
            service.submit(job).err(),
            Some(SubmitError::Wire(WireError::Overflow(
                "shape exceeds the cell bound"
            )))
        );
    }

    let stats = service.stats();
    assert_eq!(stats.jobs_rejected, 2);
    assert!(stats.tenants.iter().all(|t| t.tenant != 5));

    // Shutdown resolves the still-queued tickets as typed shutdown
    // errors rather than hanging their waiters.
    service.shutdown();
    assert!(matches!(_t1.wait(), Err(ServeError::Shutdown)));
}

/// A job that panics on a serve worker resolves its ticket with a typed
/// error and releases its tenant slot, and the worker keeps serving. With
/// zero DRAM bandwidth SAGE's cost model divides by zero on every job.
/// Each ticket is polled against a deadline, so a ticket that never
/// resolves fails the test instead of hanging it.
#[test]
fn a_panicking_job_resolves_its_ticket_and_frees_its_slot() {
    let mut system = soak_system();
    system.sage.dram.bits_per_cycle = 0;
    let service = FlexService::start(
        system,
        ServeConfig {
            workers: 1,
            tenant_inflight_cap: 1,
            ..ServeConfig::default()
        },
    )
    .expect("service starts");
    let deadline = Instant::now() + Duration::from_secs(10);
    let jobs = soak_jobs(4);
    for (i, job) in jobs.into_iter().enumerate() {
        // One tenant at an in-flight cap of 1: each submission is admitted
        // only if the previous job released its slot.
        let job = WireJob { tenant: 1, ..job };
        let ticket = service
            .submit(job)
            .expect("the previous job freed its slot");
        let outcome = loop {
            if let Some(outcome) = ticket.try_wait() {
                break outcome;
            }
            assert!(Instant::now() < deadline, "job {i}'s ticket never resolved");
            std::thread::sleep(Duration::from_millis(2));
        };
        assert!(
            matches!(outcome, Err(ServeError::Panicked(_))),
            "job {i}: {outcome:?}"
        );
    }
    let stats = service.stats();
    assert_eq!(stats.jobs_completed, 4);
    assert_eq!(stats.tenants[0].submitted, 4);
    assert_eq!(stats.tenants[0].completed, 4);
    service.shutdown();
}

#[test]
fn work_stealing_spreads_a_hoarded_batch() {
    // One worker grabs the whole batch (dispatch_batch > job count),
    // runs its first job and parks the other 63; idle siblings steal
    // from its deque. The first job is one large operand pair, which
    // keeps the hoarder busy for tens of milliseconds while the surplus
    // sits parked, so a sibling is scheduled and steals even on a
    // two-vCPU host where small jobs alone can all finish first.
    let service = FlexService::start(
        soak_system(),
        ServeConfig {
            workers: 4,
            dispatch_batch: 128,
            queue_capacity: 128,
            tenant_inflight_cap: 128,
            start_paused: true,
            ..ServeConfig::default()
        },
    )
    .expect("service starts");
    let job = |a, b| WireJob {
        tenant: 1,
        priority: Priority::Normal,
        dtype: DataType::Fp32,
        a: MatrixData::encode(&a, &MatrixFormat::Csr).unwrap(),
        b: MatrixData::encode(&b, &MatrixFormat::Coo).unwrap(),
    };
    // About 30 ms in a release build on two vCPUs, 0.2 s in debug.
    let large = job(
        random_matrix(384, 384, 16_000, 299),
        random_matrix(384, 384, 16_000, 399),
    );
    let tickets: Vec<_> = std::iter::once(large)
        .chain((1..64).map(|i| {
            job(
                random_matrix(20, 24, 120, 300 + i),
                random_matrix(24, 16, 100, 400 + i),
            )
        }))
        .map(|j| service.submit(j).unwrap())
        .collect();
    service.resume();
    let outcomes: Vec<_> = tickets
        .into_iter()
        .map(|t| t.wait().expect("job completes"))
        .collect();
    let stolen = outcomes.iter().filter(|o| o.stolen).count() as u64;
    assert_eq!(
        service.stats().jobs_stolen,
        stolen,
        "per-outcome steal flags must match the service counter"
    );
    assert!(stolen > 0, "idle workers never stole from the hoarder");
}
