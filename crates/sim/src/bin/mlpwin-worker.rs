//! Remote fleet worker: leases jobs from a controller over TCP.
//!
//! Connects to a `mlpwin-serve --fleet-listen` controller, performs the
//! schema-versioned handshake, then loops: lease a job, simulate it
//! in-process through the recoverable runner (wire heartbeats at
//! snapshot cadence renew the lease), and return the hash-guarded
//! journal line for idempotent settlement. The whole loop assumes a
//! hostile network — every wire error tears the connection down and
//! reconnects with deterministic exponential backoff + FNV-1a jitter,
//! an unsettled result is carried across the reconnect and re-sent
//! (the controller absorbs duplicates), and a schema reject or
//! exhausted reconnect budget is a clean typed exit, not a hang.
//!
//! ```text
//! mlpwin-worker --connect ADDR [--name NAME]
//!               [--snapshot-dir DIR] [--snapshot-cycles N]
//!               [--reconnect-attempts N] [--backoff-ms N]
//!               [--netfault seed=N,drop=N,dup=N,trunc=N,delay=N,partition=N]
//! ```
//!
//! `--netfault` attaches the deterministic fault injector to this
//! worker's send path (chaos testing only): same spec, same schedule.

use mlpwin_sim::journal::encode_line;
use mlpwin_sim::runner::{run_recoverable, RunSpec};
use mlpwin_sim::snapshot::{hooks, SnapshotPolicy};
use mlpwin_sim::wire::{client_handshake, reconnect_delay, Conn, Msg, NetFault, WireError};
use mlpwin_sim::{signals, SimError};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

struct Args {
    addr: SocketAddr,
    name: String,
    snapshots: SnapshotPolicy,
    reconnect_attempts: u32,
    backoff_ms: u64,
    netfault: Option<NetFault>,
}

fn parse_args() -> Result<Args, String> {
    let mut addr = None;
    let mut name = format!("worker-{}", std::process::id());
    let mut snapshots = SnapshotPolicy::default();
    let mut reconnect_attempts = 8u32;
    let mut backoff_ms = 100u64;
    let mut netfault = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or_else(|| format!("{flag} needs a {what}"));
        match flag.as_str() {
            "--connect" => {
                let text = value("host:port address")?;
                addr = Some(
                    text.parse::<SocketAddr>()
                        .map_err(|_| format!("`{text}` is not a host:port address"))?,
                );
            }
            "--name" => name = value("worker name")?,
            "--snapshot-dir" => snapshots.dir = PathBuf::from(value("directory")?),
            "--snapshot-cycles" => snapshots.cadence_cycles = parse_u64(&value("cycles")?)?,
            "--reconnect-attempts" => reconnect_attempts = parse_u64(&value("count")?)? as u32,
            "--backoff-ms" => backoff_ms = parse_u64(&value("milliseconds")?)?,
            "--netfault" => netfault = Some(NetFault::parse(&value("fault spec")?)?),
            "--help" | "-h" => {
                println!(
                    "usage: mlpwin-worker --connect ADDR [--name NAME] \
                     [--snapshot-dir DIR] [--snapshot-cycles N] \
                     [--reconnect-attempts N] [--backoff-ms N] [--netfault SPEC]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        addr: addr.ok_or("--connect is required")?,
        name,
        snapshots,
        reconnect_attempts,
        backoff_ms,
        netfault,
    })
}

fn parse_u64(s: &str) -> Result<u64, String> {
    s.parse().map_err(|_| format!("`{s}` is not a number"))
}

/// A live, handshaken session with the controller. The connection is
/// behind a mutex so the snapshot-cadence heartbeat hook (which runs on
/// the simulating thread) and the main loop can share it; the worker is
/// single-threaded outside a run, so the lock is never contended in a
/// way that interleaves frames.
struct Session {
    conn: Arc<Mutex<Option<Conn>>>,
    identity: String,
}

/// Dials the controller with bounded, deterministically jittered
/// exponential backoff. `Ok(None)` means a schema reject (retrying is
/// pointless); `Err` means the budget ran out.
fn connect_with_retry(args: &Args, conn_seq: &mut u64) -> Result<Option<Session>, WireError> {
    let mut last = WireError::Closed;
    for attempt in 1..=args.reconnect_attempts {
        if signals::interrupted() {
            return Err(WireError::Closed);
        }
        *conn_seq += 1;
        match Conn::connect(&args.addr) {
            Ok(mut conn) => {
                if let Some(base) = &args.netfault {
                    conn.set_fault(Some(base.for_connection(*conn_seq)));
                }
                match client_handshake(&mut conn, &args.name) {
                    Ok(identity) => {
                        if attempt > 1 {
                            eprintln!("mlpwin-worker: reconnected as {identity}");
                        }
                        return Ok(Some(Session {
                            conn: Arc::new(Mutex::new(Some(conn))),
                            identity,
                        }));
                    }
                    Err(e @ WireError::SchemaMismatch { .. }) => {
                        eprintln!("mlpwin-worker: {e}");
                        return Ok(None);
                    }
                    Err(e) => last = e,
                }
            }
            Err(e) => last = e,
        }
        let delay = reconnect_delay(&args.name, attempt, Duration::from_millis(args.backoff_ms));
        eprintln!(
            "mlpwin-worker: connect attempt {attempt}/{} failed ({last}); \
             retrying in {delay:?}",
            args.reconnect_attempts
        );
        std::thread::sleep(delay);
    }
    Err(last)
}

/// One request/response exchange on the shared connection. Any failure
/// drops the connection so the caller reconnects.
fn exchange(conn: &Mutex<Option<Conn>>, msg: &Msg) -> Result<Msg, WireError> {
    let mut guard = conn.lock().expect("conn lock");
    let live = guard.as_mut().ok_or(WireError::Closed)?;
    match live.request(msg) {
        Ok(reply) => Ok(reply),
        Err(e) => {
            *guard = None; // poisoned: force a reconnect
            Err(e)
        }
    }
}

/// Runs one leased spec with wire heartbeats at snapshot cadence. The
/// hook measures its own round trip and reports it in the *next*
/// heartbeat, giving the controller a per-worker RTT stream without a
/// second message type.
fn simulate(
    session: &Session,
    job: u64,
    spec: &RunSpec,
    snapshots: &SnapshotPolicy,
) -> Result<mlpwin_sim::RunResult, SimError> {
    let conn = Arc::clone(&session.conn);
    let last_rtt_us = Arc::new(Mutex::new(0u64));
    let rtt = Arc::clone(&last_rtt_us);
    hooks::set_heartbeat_fn(Some(Arc::new(move |cycle: u64| {
        let rtt_us = *rtt.lock().expect("rtt lock");
        let started = Instant::now();
        let reply = exchange(&conn, &Msg::Heartbeat { job, cycle, rtt_us });
        if matches!(reply, Ok(Msg::Ack)) {
            *rtt.lock().expect("rtt lock") = started.elapsed().as_micros() as u64;
        }
        // Any other outcome: the connection is already torn down; the
        // run continues and the result is delivered after a reconnect.
    })));
    let outcome = run_recoverable(spec, snapshots);
    hooks::set_heartbeat_fn(None);
    outcome
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("mlpwin-worker: {e}");
            return ExitCode::from(2);
        }
    };
    signals::install();

    let mut conn_seq = 0u64;
    // A finished-but-unsettled result survives reconnects: the job id it
    // ran under plus the journal line to deliver.
    let mut pending: Option<(u64, String)> = None;
    let mut done = 0u64;

    'reconnect: loop {
        if signals::interrupted() {
            eprintln!("mlpwin-worker: interrupted");
            return ExitCode::from(signals::EXIT_INTERRUPTED as u8);
        }
        let session = match connect_with_retry(&args, &mut conn_seq) {
            Ok(Some(session)) => session,
            Ok(None) => return ExitCode::FAILURE, // schema reject
            Err(WireError::Closed) if signals::interrupted() => {
                eprintln!("mlpwin-worker: interrupted");
                return ExitCode::from(signals::EXIT_INTERRUPTED as u8);
            }
            Err(e) => {
                eprintln!("mlpwin-worker: reconnect budget exhausted ({e})");
                return ExitCode::FAILURE;
            }
        };

        loop {
            if signals::interrupted() {
                eprintln!("mlpwin-worker: interrupted");
                return ExitCode::from(signals::EXIT_INTERRUPTED as u8);
            }
            // Deliver any carried-over result before asking for more
            // work; the controller absorbs duplicates idempotently.
            if let Some((job, line)) = &pending {
                match exchange(
                    &session.conn,
                    &Msg::Result {
                        job: *job,
                        line: line.clone(),
                    },
                ) {
                    Ok(Msg::Settled { owned }) => {
                        if !owned {
                            eprintln!(
                                "mlpwin-worker: job {job} settled elsewhere; \
                                 result absorbed as duplicate"
                            );
                        }
                        done += 1;
                        pending = None;
                    }
                    Ok(other) => {
                        eprintln!(
                            "mlpwin-worker: unexpected {} to a result; reconnecting",
                            other.tag()
                        );
                        continue 'reconnect;
                    }
                    Err(_) => continue 'reconnect,
                }
            }
            match exchange(&session.conn, &Msg::LeaseRequest) {
                Ok(Msg::Drain) => {
                    println!("drained done={done}");
                    return ExitCode::SUCCESS;
                }
                Ok(Msg::Idle { backoff_ms }) => {
                    std::thread::sleep(Duration::from_millis(backoff_ms.clamp(10, 5_000)));
                }
                Ok(Msg::LeaseGrant { job, spec }) => {
                    eprintln!(
                        "mlpwin-worker: {} leased job {job} ({} {})",
                        session.identity,
                        spec.profile,
                        spec.model.tag()
                    );
                    match simulate(&session, job, &spec, &args.snapshots) {
                        Ok(result) => {
                            pending = Some((job, encode_line(&spec, &result)));
                        }
                        Err(e) => {
                            // A deterministic typed failure: report it
                            // best-effort. If the report is lost the
                            // lease expires and the controller charges
                            // a kill instead — still no lost jobs.
                            let _ = exchange(
                                &session.conn,
                                &Msg::Failed {
                                    job,
                                    detail: e.to_string(),
                                },
                            );
                        }
                    }
                }
                Ok(other) => {
                    eprintln!(
                        "mlpwin-worker: unexpected {} to a lease request; reconnecting",
                        other.tag()
                    );
                    continue 'reconnect;
                }
                Err(_) => continue 'reconnect,
            }
        }
    }
}
