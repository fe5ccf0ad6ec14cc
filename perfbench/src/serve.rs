//! The end-to-end run: `xic-serve` on a Unix socket, driven by this
//! process over at most two connections in closed loops.

use crate::plan::{Op, Plan};
use crate::report::{median, Outcome, Sample};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Cold starts before the first round: at least the minimum, more while
/// they take less than the budget in total, up to the maximum. `setup_s`
/// is the median of these and of every later round's start, so short
/// start-ups get many samples.
const SETUP_STARTS: (usize, Duration, usize) = (3, Duration::from_secs(1), 21);

/// How often the server's CPU time is read during the timed phase.
const TICK_READ_EVERY: Duration = Duration::from_millis(10);

/// How long a server may take to answer its first request.
const START_TIMEOUT: Duration = Duration::from_secs(90);

/// A running `xic-serve`. Dropping it kills the process and waits.
pub struct Server {
    child: Child,
}

impl Server {
    /// Spawns the server and waits for its first reply; returns the
    /// server and the seconds from spawn to that reply.
    pub fn start(
        bin: &Path,
        args: &[String],
        socket: &Path,
        log: &Path,
    ) -> Result<(Server, f64), String> {
        // A socket file left by a killed server would accept nothing.
        let _ = std::fs::remove_file(socket);
        let log = std::fs::File::create(log).map_err(|e| format!("{}: {e}", log.display()))?;
        let started = Instant::now();
        let child = Command::new(bin)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut server = Server { child };
        loop {
            if let Ok(Some(status)) = server.child.try_wait() {
                return Err(format!("xic-serve exited during start-up: {status}"));
            }
            if let Ok(mut client) = Client::connect(socket) {
                let reply = client
                    .request("HEALTH")
                    .map_err(|e| format!("first request: {e}"))?;
                let secs = started.elapsed().as_secs_f64();
                if !reply.starts_with("OK ") {
                    return Err(format!("first reply {reply:?}"));
                }
                return Ok((server, secs));
            }
            if started.elapsed() > START_TIMEOUT {
                return Err("xic-serve did not answer within its start-up timeout".into());
            }
            std::thread::sleep(Duration::from_micros(500));
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// SIGKILL, then wait for the process to end.
    pub fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.kill();
    }
}

/// One protocol connection.
pub struct Client {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
    line: String,
}

impl Client {
    pub fn connect(socket: &Path) -> std::io::Result<Client> {
        let writer = UnixStream::connect(socket)?;
        writer.set_read_timeout(Some(Duration::from_secs(120)))?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Client {
            reader,
            writer,
            line: String::new(),
        })
    }

    /// Sends one request line and reads its reply line.
    pub fn request(&mut self, line: &str) -> std::io::Result<String> {
        let mut out = Vec::with_capacity(line.len() + 1);
        out.extend_from_slice(line.as_bytes());
        out.push(b'\n');
        self.writer.write_all(&out)?;
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(self.line.trim_end().to_string())
    }
}

/// User+system CPU ticks of process `pid` (all threads).
fn cpu_ticks(pid: u32) -> Result<u64, String> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).map_err(|e| e.to_string())?;
    let rest = &stat[stat.rfind(')').ok_or("malformed stat")? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let field = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .ok_or("malformed stat")
    };
    // After the command name: field 3 (state) is index 0, so utime
    // (field 14) and stime (field 15) are indexes 11 and 12.
    Ok(field(11)? + field(12)?)
}

/// The process's peak resident set (VmHWM) in KiB.
fn peak_rss_kib(pid: u32) -> Result<u64, String> {
    let status =
        std::fs::read_to_string(format!("/proc/{pid}/status")).map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| "no VmHWM in /proc status".to_string())
}

/// Clock ticks per second for `/proc/<pid>/stat` times.
fn clock_ticks() -> f64 {
    Command::new("getconf")
        .arg("CLK_TCK")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(100.0)
}

/// Bytes of regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(_) => e.metadata().map(|m| m.len()).unwrap_or(0),
            Err(_) => 0,
        })
        .sum()
}

/// The files a run hands the server.
pub struct Inputs {
    pub xml: PathBuf,
    pub dtd: PathBuf,
    pub gamma: PathBuf,
}

impl Inputs {
    pub fn write(plan: &Plan, dir: &Path) -> Result<Inputs, String> {
        let put = |name: &str, text: &str| -> Result<PathBuf, String> {
            let path = dir.join(name);
            std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
            Ok(path)
        };
        Ok(Inputs {
            xml: put("base.xml", &plan.base_xml)?,
            dtd: put("schema.dtd", &plan.dtd)?,
            gamma: put("gamma.xpl", &plan.gamma)?,
        })
    }

    /// `xic-serve` arguments over `store`, listening on `socket`: the
    /// default group-commit executor, fsync on.
    fn args(&self, plan: &Plan, store: &Path, socket: &Path) -> Vec<String> {
        let mut args: Vec<String> = vec![
            "--xml".into(),
            self.xml.display().to_string(),
            "--dtd".into(),
            self.dtd.display().to_string(),
            "--constraints".into(),
            self.gamma.display().to_string(),
            "--store".into(),
            store.display().to_string(),
            "--socket".into(),
            socket.display().to_string(),
        ];
        if let Some(k) = plan.shards {
            args.extend(["--shards".to_string(), k.to_string()]);
        }
        args
    }
}

/// Sends `op` (the `i`-th of its connection) on `client` and times the
/// reply.
fn send(client: &mut Client, plan: &Plan, i: usize, op: &Op) -> Result<Sample, String> {
    let line = op.line(plan.sharded());
    let sent = Instant::now();
    let reply = client
        .request(&line)
        .map_err(|e| format!("request {i}: {e}"))?;
    let at = Instant::now();
    Ok(Sample {
        reply,
        nanos: (at - sent).as_nanos() as u64,
        timed: i >= plan.warmup,
        at,
    })
}

/// Every connection's closed loop from one client thread, in strict
/// turns (the `i`-th op of each connection, then the `i+1`-th): one
/// request in flight at a time, and no hand-off between client threads.
/// Side by side on a 2-vCPU host, one connection's requests and the
/// other's server threads competed: a whole run's CPU per operation
/// doubled from one run to the next on baseline-mixed, and tenant-shards'
/// median latency moved between two modes. The barrier is passed even
/// when warm-up fails, so the timer never waits for a dead thread.
fn drive(
    socket: &Path,
    plan: &Plan,
    barrier: &Barrier,
    finished: &AtomicBool,
) -> Result<Vec<Vec<Sample>>, String> {
    let mut samples: Vec<Vec<Sample>> = plan
        .conns
        .iter()
        .map(|c| Vec::with_capacity(c.len()))
        .collect();
    let longest = plan.conns.iter().map(Vec::len).max().unwrap_or(0);
    let mut step = |clients: &mut [Client], from: usize, to: usize| -> Result<(), String> {
        for i in from..to {
            for (c, ops) in plan.conns.iter().enumerate() {
                if let Some(op) = ops.get(i) {
                    samples[c].push(send(&mut clients[c], plan, i, op)?);
                }
            }
        }
        Ok(())
    };
    let clients: Result<Vec<Client>, String> = plan
        .conns
        .iter()
        .map(|_| Client::connect(socket).map_err(|e| format!("connect: {e}")))
        .collect();
    let warm = clients.and_then(|mut clients| {
        step(&mut clients, 0, plan.warmup)?;
        Ok(clients)
    });
    barrier.wait();
    let timed = warm.and_then(|mut clients| step(&mut clients, plan.warmup, longest));
    finished.store(true, Ordering::Release);
    timed.map(|()| samples)
}

/// One round of the closed loops: warm-up, barrier, timed phase. While
/// the loops run, the server's CPU time is read every few milliseconds;
/// the busy span ends when the first connection runs out of ops.
fn traffic(plan: &Plan, pid: u32, socket: &Path, hz: f64, out: &mut Outcome) -> Result<(), String> {
    let barrier = Barrier::new(2);
    let finished = AtomicBool::new(false);
    let (samples, ticks) = std::thread::scope(|scope| -> Result<_, String> {
        let (barrier, finished) = (&barrier, &finished);
        let client = scope.spawn(move || drive(socket, plan, barrier, finished));
        barrier.wait();
        let mut ticks = vec![(Instant::now(), cpu_ticks(pid)?)];
        while !finished.load(Ordering::Acquire) {
            std::thread::sleep(TICK_READ_EVERY);
            ticks.push((Instant::now(), cpu_ticks(pid)?));
        }
        let samples = client
            .join()
            .map_err(|_| "client thread panicked".to_string())??;
        Ok((samples, ticks))
    })?;
    let start = ticks[0].0;
    let end = samples
        .iter()
        .filter_map(|conn| conn.last().map(|s| s.at))
        .min()
        .unwrap_or(start);
    for (c, conn) in samples.into_iter().enumerate() {
        for (i, mut sample) in conn.into_iter().enumerate() {
            // A connection that outlasts the others runs alone: its
            // later replies are checked but not timed.
            sample.timed &= sample.at <= end;
            out.record(plan, &plan.conns[c][i], sample);
        }
    }
    out.end_round(start, &ticks, hz);
    Ok(())
}

/// Runs the plan against a real server under `dir` and collects every
/// reply and measurement.
pub fn run(plan: &Plan, serve_bin: &Path, dir: &Path) -> Result<Outcome, String> {
    let inputs = Inputs::write(plan, dir)?;
    let socket = dir.join("xic.sock");
    let log = dir.join("server.log");
    let mut out = Outcome::new(plan);

    // Cold starts on fresh stores; the last one stays up.
    let mut server = None;
    let mut setups = Vec::new();
    let mut store = PathBuf::new();
    let (min_starts, budget, max_starts) = SETUP_STARTS;
    let setup_began = Instant::now();
    for i in 0..max_starts {
        if i >= min_starts && setup_began.elapsed() > budget {
            break;
        }
        if let Some(mut old) = server.take() {
            Server::kill(&mut old);
            let _ = std::fs::remove_dir_all(&store);
        }
        store = dir.join(format!("store-{i}"));
        let (s, secs) = Server::start(
            serve_bin,
            &inputs.args(plan, &store, &socket),
            &socket,
            &log,
        )?;
        setups.push(secs);
        server = Some(s);
    }
    let mut server = server.expect("at least one start");

    // Rounds of the closed loops, each on a fresh store, each ended by
    // crash-restarts over its store: the set-up and recovery samples
    // spread over the whole run, not over one moment of it.
    let hz = clock_ticks();
    for round in 0..plan.rounds {
        if round > 0 {
            store = dir.join(format!("round-{round}"));
            let (s, secs) = Server::start(
                serve_bin,
                &inputs.args(plan, &store, &socket),
                &socket,
                &log,
            )?;
            setups.push(secs);
            server = s;
        }
        traffic(plan, server.pid(), &socket, hz, &mut out)?;
        if round + 1 == plan.rounds {
            out.peak_rss_kib = peak_rss_kib(server.pid())?;
            out.store_bytes = dir_bytes(&store);
        }
        let mut acknowledged: Vec<u64> = plan.commits.clone();
        for restart in 0..plan.restarts {
            server.kill();
            let (s, secs) = Server::start(
                serve_bin,
                &inputs.args(plan, &store, &socket),
                &socket,
                &log,
            )?;
            server = s;
            out.recovery.push(secs);
            let mut client = Client::connect(&socket).map_err(|e| format!("connect: {e}"))?;
            let mut found = Vec::new();
            for doc in 0..plan.docs() {
                let line = if plan.sharded() {
                    format!("DOC {doc} VERSION")
                } else {
                    "VERSION".to_string()
                };
                let reply = client.request(&line).map_err(|e| format!("VERSION: {e}"))?;
                found.push(crate::report::reply_version(&reply));
            }
            out.restart(&acknowledged, &found);
            acknowledged = found.iter().map(|v| v.unwrap_or(0)).collect();
            if restart > 0 {
                continue;
            }
            for op in &plan.after_restart {
                let sent = Instant::now();
                let reply = client
                    .request(&op.line(plan.sharded()))
                    .map_err(|e| format!("request: {e}"))?;
                let at = Instant::now();
                out.record(
                    plan,
                    op,
                    Sample {
                        reply,
                        nanos: (at - sent).as_nanos() as u64,
                        timed: false,
                        at,
                    },
                );
            }
        }
        server.kill();
        let _ = std::fs::remove_dir_all(&store);
    }
    out.setup_s = median(&setups);
    Ok(out)
}
