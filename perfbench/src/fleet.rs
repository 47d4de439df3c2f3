//! `fleet_ensemble`: an in-process fleet daemon time-slicing sixteen small
//! waterbox jobs, driven by one client connection in a closed loop.

use crate::host;
use crate::report::{persisted_repeat_check, repeat_check, Counts, Gate, Report};
use crate::stats::{median, ns_per_day, respa_steps, splitmix64, tail_percentile};
use crate::traj::{counts_of, secs, trace_subject, Subject, TraceAcc, QUANTUM};
use anton_ckpt::fnv1a;
use anton_fleet::{
    serve, state_checksum, DaemonConfig, FleetClient, FleetConfig, FleetError, JobPhase, JobSpec,
};
use anton_systems::RunParams;
use std::path::Path;
use std::time::{Duration, Instant};

const JOBS: usize = 16;
const JOB_CYCLES: u64 = 12;
const WORKERS: usize = 2;
/// Status poll period: the resolution of every latency below.
const POLL: Duration = Duration::from_millis(5);
/// Daemon set-up samples per run (rounds plus extra probes).
const SETUPS: usize = 25;
/// A round that has not finished by then is a failure, not a hang.
const ROUND_TIMEOUT: Duration = Duration::from_secs(120);

/// The ensemble: equal-sized jobs, so every seed does the same work and
/// the per-job step-cost samples are alike; placements and velocities come
/// from the seed.
fn specs(seed: u64) -> Vec<JobSpec> {
    (0..JOBS as u64)
        .map(|i| {
            let s = splitmix64(seed ^ (i << 40));
            JobSpec {
                name: format!("ensemble-{i:02}"),
                n_waters: 130,
                box_edge: 20.0,
                placement_seed: s,
                temperature_k: 300.0,
                velocity_seed: splitmix64(s),
                cutoff: 7.0,
                mesh: 16,
                cycles: JOB_CYCLES,
                priority: 1,
                nodes: 1,
                threads: 1,
            }
        })
        .collect()
}

/// A job as an uninterrupted solo trajectory, configured as
/// `JobSpec::builder` configures it (tracing aside, which never changes a
/// bit).
fn subject(spec: &JobSpec) -> Subject {
    let (sys_spec, v_spec) = (spec.clone(), spec.clone());
    Subject {
        label: spec.name.clone(),
        system: Box::new(move || sys_spec.build_system().expect("generated specs are valid")),
        configure: Box::new(move |b| {
            b.velocities_from_temperature(v_spec.temperature_k, v_spec.velocity_seed)
        }),
        nodes: spec.nodes as usize,
        threads: spec.threads as usize,
        warmup: 1,
        cycles: JOB_CYCLES - 1,
        block: 1,
    }
}

fn job_counts(all: &mut Counts, i: usize, counts: &Counts) {
    for (k, v) in counts {
        all.insert(format!("job{i:02}.{k}"), *v);
    }
}

/// FNV-1a over the jobs' final checksums, in ensemble order.
fn ensemble_checksum(all: &Counts) -> u64 {
    let bytes: Vec<u8> = (0..JOBS)
        .flat_map(|i| all[&format!("job{i:02}.final_checksum")].to_le_bytes())
        .collect();
    fnv1a(&bytes)
}

fn pin_check(gate: &mut Gate, all: &Counts, pinned: Option<u64>) {
    if let Some(pin) = pinned {
        let got = ensemble_checksum(all);
        gate.check(got == pin, || {
            format!(
                "fleet_ensemble: ensemble checksum {got:#018x} differs from the pinned {pin:#018x}"
            )
        });
    }
}

fn daemon_config(dir: &Path, sock: &Path) -> DaemonConfig {
    let _ = std::fs::remove_dir_all(dir);
    let mut fleet = FleetConfig::new(dir);
    fleet.quantum = QUANTUM;
    fleet.workers = WORKERS;
    fleet.keep = 2;
    DaemonConfig {
        socket: sock.to_path_buf(),
        fleet,
    }
}

/// A client call that failed leaves a daemon nobody can shut down, and a
/// panic would wait for it forever inside the thread scope: leave instead.
fn or_exit<T>(result: Result<T, FleetError>, what: &str) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("fleet client {what} failed: {e}");
        std::process::exit(1);
    })
}

/// Connect to a daemon started at `t0`, retrying while it binds.
fn connect(sock: &Path, t0: Instant) -> FleetClient {
    loop {
        match FleetClient::connect(sock) {
            Ok(c) => return c,
            Err(_) if t0.elapsed() < Duration::from_secs(30) => {
                std::thread::sleep(Duration::from_micros(50))
            }
            Err(e) => {
                // A daemon that never listens cannot be shut down; leave.
                eprintln!("fleet daemon never accepted a connection: {e}");
                std::process::exit(1);
            }
        }
    }
}

/// Daemon start to first accepted submit, without waiting for the job:
/// the daemon shuts down once the slice it may have started is done.
fn setup_probe(spec: &JobSpec, dir: &Path, sock: &Path, gate: &mut Gate) -> f64 {
    let cfg = daemon_config(dir, sock);
    std::thread::scope(|sc| {
        let t0 = Instant::now();
        let daemon = sc.spawn(|| serve(&cfg));
        let mut client = connect(sock, t0);
        let submitted = client.submit(spec.clone());
        let setup_s = secs(t0);
        let shutdown = client.shutdown();
        drop(client);
        let served = daemon.join().expect("daemon thread panicked");
        gate.check(
            submitted.is_ok() && shutdown.is_ok() && served.is_ok(),
            || format!("daemon set-up probe: {submitted:?} / {shutdown:?} / {served:?}"),
        );
        setup_s
    })
}

struct FleetRound {
    setup_s: f64,
    latency_s: Vec<f64>,
    queue_wait_s: Vec<f64>,
    /// Per job: time it held a worker, over its steps (ms).
    service_step_ms: Vec<f64>,
    makespan_s: f64,
    submit_rtt_us: Vec<f64>,
    list_rtt_us: Vec<f64>,
    counts: Counts,
}

/// One round: start a daemon, submit every job at once, poll until all are
/// done, check them against the solo runs, shut the daemon down.
fn fleet_round(
    specs: &[JobSpec],
    solo: &[u64],
    dir: &Path,
    sock: &Path,
    gate: &mut Gate,
) -> FleetRound {
    let cfg = daemon_config(dir, sock);
    let n = specs.len();
    std::thread::scope(|sc| {
        let t0 = Instant::now();
        let daemon = sc.spawn(|| serve(&cfg));
        let mut client = connect(sock, t0);
        let mut setup_s = 0.0;
        let mut submit_rtt_us = Vec::with_capacity(n);
        let mut submitted = Vec::with_capacity(n);
        let mut ids = Vec::with_capacity(n);
        let first_submit = Instant::now();
        for (i, spec) in specs.iter().enumerate() {
            let t = Instant::now();
            let (id, fresh, _) = or_exit(client.submit(spec.clone()), "submit");
            submit_rtt_us.push(secs(t) * 1e6);
            if i == 0 {
                setup_s = secs(t0);
            }
            submitted.push(Instant::now());
            ids.push(id);
            gate.check(fresh, || format!("{}: submit was not fresh", spec.name));
        }
        let mut started: Vec<Option<Instant>> = vec![None; n];
        let mut done: Vec<Option<Instant>> = vec![None; n];
        // Time each job held a worker: a poll that shows it `Running`
        // credits it with the interval since the previous poll. Waiting in
        // the queue, which depends on submit order and worker races, is
        // left to the latency metrics.
        let mut running_s = vec![0.0; n];
        let mut list_rtt_us = Vec::new();
        let mut views = Vec::new();
        let mut prev = first_submit;
        while done.iter().any(Option::is_none) && first_submit.elapsed() < ROUND_TIMEOUT {
            std::thread::sleep(POLL);
            let t = Instant::now();
            views = or_exit(client.list(), "list");
            let now = Instant::now();
            list_rtt_us.push((now - t).as_secs_f64() * 1e6);
            let interval = (now - prev).as_secs_f64();
            prev = now;
            for v in &views {
                let Some(i) = ids.iter().position(|&id| id == v.id) else {
                    continue;
                };
                if v.phase == JobPhase::Running {
                    running_s[i] += interval;
                }
                if started[i].is_none() && (v.phase != JobPhase::Queued || v.cycles_done > 0) {
                    started[i] = Some(now);
                }
                if done[i].is_none() && v.phase == JobPhase::Done {
                    done[i] = Some(now);
                }
            }
        }
        let shutdown = client.shutdown();
        drop(client);
        let served = daemon.join().expect("daemon thread panicked");
        gate.check(shutdown.is_ok() && served.is_ok(), || {
            format!("daemon shutdown: {shutdown:?} / {served:?}")
        });

        let expect_slices = JOB_CYCLES.div_ceil(QUANTUM) - 1;
        let mut counts = Counts::new();
        for (i, spec) in specs.iter().enumerate() {
            let Some(v) = views.iter().find(|v| v.id == ids[i]) else {
                gate.fail(format!("{}: missing from the listing", spec.name));
                continue;
            };
            let what = &spec.name;
            gate.check(done[i].is_some(), || {
                format!("{what}: not done within {ROUND_TIMEOUT:?}")
            });
            gate.check(v.final_checksum == solo[i], || {
                format!(
                    "{what}: fleet checksum {:#018x} != solo {:#018x}",
                    v.final_checksum, solo[i]
                )
            });
            gate.check(v.violations == 0 && v.battery_samples > 0, || {
                format!(
                    "{what}: {} battery violations in {} samples",
                    v.violations, v.battery_samples
                )
            });
            gate.check(
                v.preemptions == expect_slices && v.resumes == expect_slices,
                || {
                    format!(
                        "{what}: {} preemptions / {} resumes, expected {expect_slices}",
                        v.preemptions, v.resumes
                    )
                },
            );
            counts.insert(format!("job{i:02}.preemptions"), v.preemptions);
            counts.insert(format!("job{i:02}.resumes"), v.resumes);
            counts.insert(format!("job{i:02}.ckpt_bytes"), v.ckpt_bytes);
            counts.insert(format!("job{i:02}.final_checksum"), v.final_checksum);
        }
        let since = |t: &[Option<Instant>]| -> Vec<f64> {
            t.iter()
                .zip(&submitted)
                .filter_map(|(x, s)| x.map(|x| (x - *s).as_secs_f64()))
                .collect()
        };
        let steps = (JOB_CYCLES * specs[0].steps_per_cycle()) as f64;
        let service_step_ms = running_s
            .iter()
            .zip(&done)
            .filter(|(_, d)| d.is_some())
            .map(|(r, _)| r * 1e3 / steps)
            .collect();
        let last_done = done
            .iter()
            .flatten()
            .max()
            .copied()
            .unwrap_or_else(Instant::now);
        FleetRound {
            setup_s,
            latency_s: since(&done),
            queue_wait_s: since(&started),
            service_step_ms,
            makespan_s: (last_done - first_submit).as_secs_f64(),
            submit_rtt_us,
            list_rtt_us,
            counts,
        }
    })
}

/// Every job run solo and uninterrupted: the reference each fleet job must
/// match, plus one resume sample per job. Returns the jobs' counts.
fn solo_pass(specs: &[JobSpec], work: &Path, resumes: &mut Vec<f64>, gate: &mut Gate) -> Counts {
    let mut all = Counts::new();
    for (i, spec) in specs.iter().enumerate() {
        let s = subject(spec);
        let dir = work.join("solo").join(i.to_string());
        let mut sim = s.builder((s.system)(), &dir).build();
        sim.run_cycles((s.warmup + s.cycles) as usize);
        let bytes = sim.write_checkpoint().expect("solo checkpoint");
        let counts = counts_of(&sim, bytes);
        drop(sim);
        let b = spec.builder().expect("generated specs are valid");
        let t = Instant::now();
        let resumed = b.resume_from(&dir);
        resumes.push(secs(t));
        let ok = resumed.is_ok_and(|x| counts_of(&x, bytes) == counts);
        gate.check(ok, || {
            format!("{}: solo resume differs from the solo run", spec.name)
        });
        job_counts(&mut all, i, &counts);
    }
    all
}

/// The end-to-end run: the solo reference, then fleet rounds until
/// `seconds` have passed (at least two), each followed by a resume of
/// every finished job.
pub fn run_e2e(
    seed: u64,
    seconds: f64,
    work: &Path,
    counts_file: &Path,
    pinned: Option<u64>,
    r: &mut Report,
) {
    let specs = specs(seed);
    let mut resumes = Vec::new();
    let reference = solo_pass(&specs, work, &mut resumes, &mut r.gate);
    let solo: Vec<u64> = (0..JOBS)
        .map(|i| reference[&format!("job{i:02}.final_checksum")])
        .collect();
    persisted_repeat_check(&mut r.gate, counts_file, &reference);
    pin_check(&mut r.gate, &reference, pinned);

    let sock = work.join("f.sock");
    let start = Instant::now();
    let mut rounds: Vec<FleetRound> = Vec::new();
    while rounds.len() < 2 || start.elapsed().as_secs_f64() < seconds {
        let dir = work.join("round");
        let round = fleet_round(&specs, &solo, &dir, &sock, &mut r.gate);
        if let Some(first) = rounds.first() {
            repeat_check(&mut r.gate, &first.counts, &round.counts, "fleet_ensemble");
        }
        rounds.push(round);
        // Resume every finished job, as each slice resumes its engine.
        let mut fleet_cfg = FleetConfig::new(&dir);
        fleet_cfg.keep = 2;
        for (i, spec) in specs.iter().enumerate() {
            let b = spec.builder().expect("generated specs are valid");
            let t = Instant::now();
            let sim = b.resume_from(fleet_cfg.job_dir(spec.job_id()));
            resumes.push(secs(t));
            let ok = sim.is_ok_and(|s| state_checksum(&s) == solo[i]);
            r.gate.check(ok, || {
                format!(
                    "{}: resume of the fleet checkpoint differs from solo",
                    spec.name
                )
            });
        }
    }
    let peak = host::peak_rss_mib();

    let nr = rounds.len();
    let step_ms: Vec<f64> = rounds
        .iter()
        .flat_map(|x| x.service_step_ms.iter().copied())
        .collect();
    let n = step_ms.len();
    r.metric(
        "ms_per_step_p50",
        "ms",
        median(&step_ms),
        format!("median of {n} jobs: time the job held a worker (polls seeing it Running, {POLL:?} period) / steps"),
    );
    let tail = tail_percentile(&step_ms, 90.0, 10);
    r.metric(
        "ms_per_step_p90",
        "ms",
        tail.value,
        format!("p{:.1} of {n} samples", tail.percentile),
    );
    let makespan: f64 = rounds.iter().map(|x| x.makespan_s).sum();
    let params = RunParams::paper(specs[0].cutoff, specs[0].mesh as usize);
    let steps = respa_steps(JOB_CYCLES * (JOBS * nr) as u64, params.longrange_every);
    r.metric(
        "ns_per_day",
        "ns/day",
        ns_per_day(params.dt_fs, steps, makespan),
        format!("ensemble throughput: {steps} steps x {} fs over {makespan:.3} s of makespan ({nr} rounds)", params.dt_fs),
    );
    let mut setups: Vec<f64> = rounds.iter().map(|x| x.setup_s).collect();
    while setups.len() < SETUPS {
        setups.push(setup_probe(
            &specs[0],
            &work.join("probe"),
            &sock,
            &mut r.gate,
        ));
    }
    r.metric(
        "setup_s",
        "s",
        median(&setups),
        format!(
            "median of {} daemon starts to first accepted submit",
            setups.len()
        ),
    );
    r.metric(
        "resume_s",
        "s",
        median(&resumes),
        format!(
            "median of {} resume_from() of finished jobs (fleet and solo checkpoints)",
            resumes.len()
        ),
    );
    let lat: Vec<f64> = rounds
        .iter()
        .flat_map(|x| x.latency_s.iter().copied())
        .collect();
    r.metric(
        "job_latency_p50_s",
        "s",
        median(&lat),
        format!(
            "median of {} jobs: submit returned to first poll seeing Done (poll {POLL:?})",
            lat.len()
        ),
    );
    let mk: Vec<f64> = rounds.iter().map(|x| x.makespan_s).collect();
    r.metric(
        "makespan_s",
        "s",
        median(&mk),
        format!("median of {nr} rounds: first submit to last job Done"),
    );
    r.metric(
        "peak_rss_mb",
        "MiB",
        peak.unwrap_or(f64::NAN),
        "VmHWM after the rounds",
    );

    // Service-side numbers of this workload only (not in the metric set,
    // which every workload reports in full).
    let flat = |f: fn(&FleetRound) -> &Vec<f64>| -> Vec<f64> {
        rounds.iter().flat_map(|x| f(x).iter().copied()).collect()
    };
    let (sub, list, wait) = (
        flat(|x| &x.submit_rtt_us),
        flat(|x| &x.list_rtt_us),
        flat(|x| &x.queue_wait_s),
    );
    r.line(format!(
        "fleet.submit_rtt_us p50 {:.1} over {} submits",
        median(&sub),
        sub.len()
    ));
    r.line(format!(
        "fleet.status_rtt_us p50 {:.1} over {} list polls (status of every job in one frame)",
        median(&list),
        list.len()
    ));
    r.line(format!("fleet.queue_wait_p50_s {:.4} over {} jobs (submit returned to first poll seeing Running or progress)", median(&wait), wait.len()));
    let c = &rounds[0].counts;
    let total = |key: &str| -> u64 {
        c.iter()
            .filter(|(k, _)| k.ends_with(key))
            .map(|(_, v)| v)
            .sum()
    };
    r.line(format!(
        "count fleet preemptions {} resumes {} (per round, identical in all {nr} rounds)",
        total(".preemptions"),
        total(".resumes")
    ));
}

/// The traced run: every member job as a traced subject.
pub fn run_trace(seed: u64, work: &Path, counts_file: &Path, pinned: Option<u64>, r: &mut Report) {
    let mut acc = TraceAcc::default();
    let mut all = Counts::new();
    for (i, spec) in specs(seed).iter().enumerate() {
        let s = subject(spec);
        let slice = |d: &Path| {
            spec.builder()
                .expect("generated specs are valid")
                .checkpoint_dir(d)
                .checkpoint_keep(2)
        };
        let c = trace_subject(
            &s,
            1,
            &work.join(format!("job{i:02}")),
            &slice,
            &mut acc,
            &mut r.gate,
        );
        job_counts(&mut all, i, &c);
    }
    persisted_repeat_check(&mut r.gate, counts_file, &all);
    pin_check(&mut r.gate, &all, pinned);
    acc.report(r);
}
