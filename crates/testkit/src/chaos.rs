//! Deterministic chaos proxy for the `SLPWFEED` wire transport.
//!
//! A [`ChaosProxy`] sits between a `sleepwatch feed` server and a
//! [`TcpEventSource`](sleepwatch_probing::transport::TcpEventSource)
//! client on loopback and injects faults *frame-aware*: it parses the
//! 64-byte handshake prelude and the length-prefixed frames flowing
//! server→client, so it can sever a connection mid-frame, flip a byte
//! inside exactly one frame body, stall past the reader's heartbeat
//! budget, duplicate or swap whole frames, or shred writes into
//! byte-sized chunks — each at a splitmix64-keyed, reproducible point in
//! the stream.
//!
//! Every draw derives from [`ChaosPlan::seed`] and the connection's
//! attempt number, mirroring
//! [`FaultPlan`](sleepwatch_probing::FaultPlan)'s preset style: the same
//! plan against the same feed injects the same faults. Harmful faults
//! carry a *growing budget* — connection `k` passes
//! `base + k · growth` clean frames before its injection, and the whole
//! proxy stops harming after [`ChaosPlan::max_harms`] injections — so a
//! client whose retry budget refills on progress always converges, and
//! the transport oracle can assert exact batch equivalence underneath
//! every preset.

use std::io::{self, ErrorKind, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::SeqCst};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

use sleepwatch_framing::PRELUDE_LEN;
use sleepwatch_geoecon::rng::KeyedRng;

/// The harmful fault a plan injects once per connection, after its
/// growing clean-frame budget elapses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Harm {
    /// Write part of the next frame, then drop both sides of the
    /// connection — the client sees a torn frame and must reconnect.
    SeverMidFrame,
    /// Cut the connection cleanly *between* frames (reconnect storm).
    Sever,
    /// XOR one keyed byte inside the next frame body — the frame CRC
    /// must catch it and poison the connection.
    FlipByte,
    /// Forward nothing for this many milliseconds — long enough to burn
    /// through the reader's heartbeat budget and trigger the
    /// peer-went-silent path.
    Stall(u64),
    /// Deliver the next two frames swapped — the reader sees a sequence
    /// gap and must resume.
    Reorder,
}

/// A deterministic fault schedule for one proxy, preset-style.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosPlan {
    /// Seed keying every draw (byte positions, chunk sizes).
    pub seed: u64,
    /// The harmful fault, if any. Injected once per connection.
    pub harm: Option<Harm>,
    /// Clean frames passed before the first connection's injection.
    pub base: u64,
    /// Extra clean frames granted per reconnect attempt — the budget
    /// growth that guarantees forward progress.
    pub growth: u64,
    /// Total harmful injections across the proxy's lifetime; after
    /// this, traffic flows clean.
    pub max_harms: u64,
    /// Duplicate every Nth frame (benign: the reader drops duplicates).
    pub dup_every: Option<u64>,
    /// Shred writes into 1–7-byte chunks (benign: exercises the
    /// incremental decoder's `NeedMore` path).
    pub short_write: bool,
}

impl ChaosPlan {
    /// The transparent proxy: forwards everything untouched.
    pub const fn none(seed: u64) -> Self {
        ChaosPlan {
            seed,
            harm: None,
            base: 0,
            growth: 0,
            max_harms: 0,
            dup_every: None,
            short_write: false,
        }
    }

    fn harmful(seed: u64, harm: Harm, base: u64, growth: u64, max_harms: u64) -> Self {
        ChaosPlan { harm: Some(harm), base, growth, max_harms, ..Self::none(seed) }
    }

    /// Mid-frame sever after a small growing budget.
    pub fn sever_midframe(seed: u64) -> Self {
        Self::harmful(seed, Harm::SeverMidFrame, 2, 3, 5)
    }

    /// One keyed byte flip per connection.
    pub fn byte_flip(seed: u64) -> Self {
        Self::harmful(seed, Harm::FlipByte, 1, 3, 6)
    }

    /// A stall long past the reader's heartbeat budget.
    pub fn stall(seed: u64) -> Self {
        Self::harmful(seed, Harm::Stall(400), 3, 4, 2)
    }

    /// Byte-shredded writes, no harm.
    pub fn short_write(seed: u64) -> Self {
        ChaosPlan { short_write: true, ..Self::none(seed) }
    }

    /// Every third frame delivered twice.
    pub fn dup_frame(seed: u64) -> Self {
        ChaosPlan { dup_every: Some(3), ..Self::none(seed) }
    }

    /// Adjacent frames swapped once per connection.
    pub fn reorder_frame(seed: u64) -> Self {
        Self::harmful(seed, Harm::Reorder, 2, 3, 4)
    }

    /// Repeated clean cuts: a reconnect storm.
    pub fn reconnect_storm(seed: u64) -> Self {
        Self::harmful(seed, Harm::Sever, 1, 2, 6)
    }

    /// Every named preset, for exhaustive oracle sweeps — the chaos
    /// counterpart of `FaultPlan::presets`.
    pub fn presets(seed: u64) -> Vec<(&'static str, ChaosPlan)> {
        vec![
            ("none", Self::none(seed)),
            ("sever-midframe", Self::sever_midframe(seed)),
            ("byte-flip", Self::byte_flip(seed)),
            ("stall", Self::stall(seed)),
            ("short-write", Self::short_write(seed)),
            ("dup-frame", Self::dup_frame(seed)),
            ("reorder-frame", Self::reorder_frame(seed)),
            ("reconnect-storm", Self::reconnect_storm(seed)),
        ]
    }
}

/// A loopback TCP proxy applying a [`ChaosPlan`] to the server→client
/// byte stream (client→server bytes are forwarded untouched — the
/// resume handshake must arrive intact for budgets to grow).
pub struct ChaosProxy {
    addr: String,
    stop: Arc<AtomicBool>,
    attempts: Arc<AtomicU64>,
    harms: Arc<AtomicU64>,
    accept: Option<JoinHandle<()>>,
}

impl ChaosProxy {
    /// Starts the proxy on an ephemeral loopback port, forwarding each
    /// accepted connection to `upstream`.
    pub fn spawn(upstream: &str, plan: ChaosPlan) -> io::Result<ChaosProxy> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?.to_string();
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let attempts = Arc::new(AtomicU64::new(0));
        let harms = Arc::new(AtomicU64::new(0));
        let upstream = upstream.to_string();
        let (stop2, attempts2, harms2) = (stop.clone(), attempts.clone(), harms.clone());
        let accept = thread::spawn(move || {
            let mut workers = Vec::new();
            while !stop2.load(SeqCst) {
                match listener.accept() {
                    Ok((down, _)) => {
                        let attempt = attempts2.fetch_add(1, SeqCst);
                        let up = match TcpStream::connect(&upstream) {
                            Ok(s) => s,
                            Err(_) => continue, // server between connections
                        };
                        workers.push(spawn_pair(up, down, plan, attempt, harms2.clone()));
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => {
                        thread::sleep(Duration::from_millis(2));
                    }
                    Err(_) => break,
                }
            }
            for w in workers {
                let _ = w.join();
            }
        });
        Ok(ChaosProxy { addr, stop, attempts, harms, accept: Some(accept) })
    }

    /// The proxy's listen address, for the client to dial.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Connections accepted so far.
    pub fn connections(&self) -> u64 {
        self.attempts.load(SeqCst)
    }

    /// Harmful faults injected so far.
    pub fn harms(&self) -> u64 {
        self.harms.load(SeqCst)
    }

    /// Stops accepting and joins the forwarding threads.
    pub fn shutdown(mut self) {
        self.stop.store(true, SeqCst);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.stop.store(true, SeqCst);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

/// Spawns the two forwarding threads for one connection pair and returns
/// a handle that joins both.
fn spawn_pair(
    up: TcpStream,
    down: TcpStream,
    plan: ChaosPlan,
    attempt: u64,
    harms: Arc<AtomicU64>,
) -> JoinHandle<()> {
    let up2 = up.try_clone().ok();
    let down2 = down.try_clone().ok();
    thread::spawn(move || {
        // Client→server: raw forward (handshake resume prelude).
        let raw = match (up2, down2) {
            (Some(mut u), Some(mut d)) => Some(thread::spawn(move || {
                let mut buf = [0u8; 4096];
                loop {
                    match d.read(&mut buf) {
                        Ok(0) | Err(_) => break,
                        Ok(n) => {
                            if u.write_all(&buf[..n]).is_err() {
                                break;
                            }
                        }
                    }
                }
                let _ = u.shutdown(Shutdown::Write);
            })),
            _ => None,
        };
        // Server→client: frame-aware with faults.
        let _ = pump_faulty(up, down, plan, attempt, &harms);
        if let Some(h) = raw {
            let _ = h.join();
        }
    })
}

/// Reads exactly `buf.len()` bytes from `up`, retrying timeouts.
/// Returns false on EOF or hard error.
fn read_full(up: &mut TcpStream, buf: &mut [u8]) -> bool {
    let mut got = 0;
    while got < buf.len() {
        match up.read(&mut buf[got..]) {
            Ok(0) => return false,
            Ok(n) => got += n,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => continue,
            Err(_) => return false,
        }
    }
    true
}

/// Writes `bytes` downstream, whole or shredded into keyed 1–7-byte
/// chunks when the plan asks for short writes.
fn write_down(down: &mut TcpStream, bytes: &[u8], plan: &ChaosPlan, rng: &mut KeyedRng) -> bool {
    if !plan.short_write {
        return down.write_all(bytes).is_ok();
    }
    let mut at = 0;
    while at < bytes.len() {
        let n = (1 + rng.below(7) as usize).min(bytes.len() - at);
        if down.write_all(&bytes[at..at + n]).is_err() {
            return false;
        }
        at += n;
    }
    true
}

/// The server→client pump: forwards the hello prelude untouched, then
/// frames with the plan's faults applied at their keyed trigger points.
fn pump_faulty(
    mut up: TcpStream,
    mut down: TcpStream,
    plan: ChaosPlan,
    attempt: u64,
    harms: &Arc<AtomicU64>,
) -> io::Result<()> {
    up.set_read_timeout(Some(Duration::from_millis(5_000)))?;
    down.set_nodelay(true).ok();
    let mut rng = KeyedRng::from_parts(&[plan.seed, 0xC4A0_5CA0, attempt]);
    let trigger = plan.base + attempt * plan.growth;
    let mut frame_no: u64 = 0;
    let mut fired = false;
    let mut held: Option<Vec<u8>> = None;

    let mut hello = [0u8; PRELUDE_LEN];
    if !read_full(&mut up, &mut hello) {
        return Ok(());
    }
    if !write_down(&mut down, &hello, &plan, &mut rng) {
        return Ok(());
    }

    loop {
        let mut len4 = [0u8; 4];
        if !read_full(&mut up, &mut len4) {
            break;
        }
        let len = u32::from_le_bytes(len4) as usize;
        let mut frame = vec![0u8; 4 + len];
        frame[..4].copy_from_slice(&len4);
        if !read_full(&mut up, &mut frame[4..]) {
            break;
        }
        frame_no += 1;

        let arm = plan.harm.filter(|_| !fired && frame_no > trigger).filter(|_| {
            harms.fetch_update(SeqCst, SeqCst, |h| (h < plan.max_harms).then_some(h + 1)).is_ok()
        });
        fired |= arm.is_some();
        match arm {
            Some(Harm::SeverMidFrame) => {
                let cut = 1 + rng.below((frame.len() - 1) as u64) as usize;
                let _ = down.write_all(&frame[..cut]);
                let _ = down.shutdown(Shutdown::Both);
                let _ = up.shutdown(Shutdown::Both);
                return Ok(());
            }
            Some(Harm::Sever) => {
                let _ = down.shutdown(Shutdown::Both);
                let _ = up.shutdown(Shutdown::Both);
                return Ok(());
            }
            Some(Harm::FlipByte) => {
                let at = 4 + rng.below(len as u64) as usize;
                frame[at] ^= 0x40;
            }
            Some(Harm::Stall(ms)) => {
                thread::sleep(Duration::from_millis(ms));
            }
            Some(Harm::Reorder) => {
                held = Some(frame);
                continue; // deliver the *next* frame first
            }
            None => {}
        }

        if !write_down(&mut down, &frame, &plan, &mut rng) {
            break;
        }
        if let Some(prev) = held.take() {
            if !write_down(&mut down, &prev, &plan, &mut rng) {
                break;
            }
        }
        if let Some(every) = plan.dup_every {
            if frame_no % every == 0 && !write_down(&mut down, &frame, &plan, &mut rng) {
                break;
            }
        }
    }
    let _ = down.shutdown(Shutdown::Both);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_deterministic_and_named() {
        let a = ChaosPlan::presets(7);
        let b = ChaosPlan::presets(7);
        assert_eq!(a, b);
        assert_eq!(a.len(), 8);
        assert_eq!(a[0].0, "none");
        assert!(a.iter().filter(|(_, p)| p.harm.is_some()).count() >= 5);
    }

    #[test]
    fn budgets_grow_with_attempts() {
        let p = ChaosPlan::sever_midframe(1);
        assert!(p.base + 3 * p.growth > p.base + p.growth);
        assert!(p.max_harms > 0);
    }

    #[test]
    fn transparent_proxy_forwards_bytes() {
        let upstream = TcpListener::bind("127.0.0.1:0").unwrap();
        let up_addr = upstream.local_addr().unwrap().to_string();
        let server = thread::spawn(move || {
            let (mut s, _) = upstream.accept().unwrap();
            let mut hello = [0u8; PRELUDE_LEN];
            s.read_exact(&mut hello).unwrap();
            s.write_all(&hello).unwrap(); // echo the prelude back
            let frame = [5u8, 0, 0, 0, 1, 2, 3, 4, 5];
            s.write_all(&frame).unwrap();
        });
        let proxy = ChaosProxy::spawn(&up_addr, ChaosPlan::none(3)).unwrap();
        let mut c = TcpStream::connect(proxy.addr()).unwrap();
        c.write_all(&[7u8; PRELUDE_LEN]).unwrap();
        let mut back = [0u8; PRELUDE_LEN + 9];
        c.read_exact(&mut back).unwrap();
        assert_eq!(&back[..PRELUDE_LEN], &[7u8; PRELUDE_LEN]);
        assert_eq!(&back[PRELUDE_LEN..], &[5, 0, 0, 0, 1, 2, 3, 4, 5]);
        server.join().unwrap();
        drop(c);
        proxy.shutdown();
    }
}
