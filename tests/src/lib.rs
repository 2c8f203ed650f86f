//! Integration-test package for the TIB-PRE workspace.
//!
//! The actual tests live in the sibling `tests/` directory of this package and
//! exercise scenarios that span several crates (multi-domain delegation,
//! healthcare workflows, serialization, failure injection, security games).
//! This library target carries the shared harnesses: [`compressed`], the
//! element encodings older writers emitted; [`FaultProxy`], the
//! deterministic TCP fault injector the replication suite interposes
//! between a primary store node and its read replicas; [`fixture`], one
//! seeded world of scheme artifacts for the digest suites; [`game`], the
//! executable IND-ID-DR-CPA security game; [`model`], the decoded-record
//! model of the PHR store the resident-store properties compare against;
//! [`oracle`], the reference pairing; and [`test_levels`], the one switch
//! that widens the oracle suites beyond the toy level.

pub mod compressed;
pub mod fixture;
pub mod game;
pub mod model;
pub mod oracle;

use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;
use tibpre_pairing::{PairingParams, SecurityLevel};

/// The parameter levels an oracle suite runs at: always `Toy`, plus every
/// level named in `TIBPRE_TEST_LEVELS` (comma-separated `80`, `112`, `128`;
/// `toy` is accepted and redundant).  The scheduled CI job sets it to `80`.
///
/// Panics on an unknown tag, so a typo cannot pass as a toy-only run.
pub fn test_levels() -> Vec<Arc<PairingParams>> {
    let spec = std::env::var("TIBPRE_TEST_LEVELS").unwrap_or_default();
    let mut levels = vec![SecurityLevel::Toy];
    for tag in spec.split(',').map(str::trim) {
        match tag {
            "" | "toy" => {}
            "80" => levels.push(SecurityLevel::Low80),
            "112" => levels.push(SecurityLevel::Medium112),
            "128" => levels.push(SecurityLevel::High128),
            other => panic!("unknown TIBPRE_TEST_LEVELS entry {other:?} (toy, 80, 112, 128)"),
        }
    }
    levels.into_iter().map(PairingParams::cached).collect()
}

/// How often the proxy's pumps and accept loop re-check their flags.
const POLL: Duration = Duration::from_millis(10);

/// Sentinel for "no cut armed".
const UNLIMITED: u64 = u64::MAX;

struct ProxyState {
    target: String,
    stop: AtomicBool,
    paused: AtomicBool,
    /// Server→client bytes still allowed before the next cut
    /// ([`UNLIMITED`] = pass-through).  Shared across connections, so one
    /// armed cut fires exactly once on whichever connection is live.
    downstream_budget: AtomicU64,
    /// What a fired cut re-arms the budget to ([`UNLIMITED`] = one-shot).
    rearm: AtomicU64,
    /// Cuts fired so far — lets a test assert the fault actually happened.
    cuts: AtomicU64,
    /// Live stream clones, so `drop_connections` can sever them all.
    conns: Mutex<Vec<TcpStream>>,
}

/// A deterministic TCP fault injector: forwards one listening socket to a
/// target address and tears the stream down at an exact downstream byte
/// offset on command.
///
/// A "cut" severs the connection mid-byte-stream — from the peers' view an
/// abrupt RST/EOF at an arbitrary point inside a frame, exactly the tear a
/// crashing primary or flaky network produces.  New connections through
/// the proxy keep working after a cut, so a reconnecting subscriber drives
/// its own recovery path.
pub struct FaultProxy {
    addr: SocketAddr,
    state: Arc<ProxyState>,
    accept_thread: Option<JoinHandle<()>>,
}

impl FaultProxy {
    /// Starts a proxy on an ephemeral loopback port forwarding to `target`.
    pub fn start(target: impl Into<String>) -> io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let state = Arc::new(ProxyState {
            target: target.into(),
            stop: AtomicBool::new(false),
            paused: AtomicBool::new(false),
            downstream_budget: AtomicU64::new(UNLIMITED),
            rearm: AtomicU64::new(UNLIMITED),
            cuts: AtomicU64::new(0),
            conns: Mutex::new(Vec::new()),
        });
        let accept_state = Arc::clone(&state);
        let accept_thread = std::thread::Builder::new()
            .name("fault-proxy-accept".to_string())
            .spawn(move || accept_loop(listener, accept_state))?;
        Ok(FaultProxy {
            addr,
            state,
            accept_thread: Some(accept_thread),
        })
    }

    /// The address subscribers should connect to instead of the target.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Arms one cut: after `n` more server→client bytes the live
    /// connection is severed (mid-frame if that is where byte `n` lands).
    /// After firing, the proxy passes traffic again until re-armed.
    pub fn cut_downstream_after(&self, n: u64) {
        self.state.rearm.store(UNLIMITED, Ordering::SeqCst);
        self.state.downstream_budget.store(n, Ordering::SeqCst);
    }

    /// Like [`Self::cut_downstream_after`], but each cut re-arms the next
    /// `n` bytes on, so no connection that follows a cut streams uncut.
    pub fn cut_downstream_every(&self, n: u64) {
        self.state.rearm.store(n, Ordering::SeqCst);
        self.state.downstream_budget.store(n, Ordering::SeqCst);
    }

    /// How many cuts have fired so far.
    pub fn cuts(&self) -> u64 {
        self.state.cuts.load(Ordering::SeqCst)
    }

    /// Severs every live connection right now (pass-through resumes for
    /// new connections).
    pub fn drop_connections(&self) {
        let mut conns = self.state.conns.lock().unwrap();
        for conn in conns.drain(..) {
            let _ = conn.shutdown(Shutdown::Both);
        }
    }

    /// Stalls server→client forwarding without closing anything (a slow or
    /// frozen network path).
    pub fn pause(&self) {
        self.state.paused.store(true, Ordering::SeqCst);
    }

    /// Resumes forwarding after [`Self::pause`].
    pub fn resume(&self) {
        self.state.paused.store(false, Ordering::SeqCst);
    }
}

impl Drop for FaultProxy {
    fn drop(&mut self) {
        self.state.stop.store(true, Ordering::SeqCst);
        self.drop_connections();
        if let Some(thread) = self.accept_thread.take() {
            let _ = thread.join();
        }
    }
}

fn accept_loop(listener: TcpListener, state: Arc<ProxyState>) {
    while !state.stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((client, _peer)) => {
                let server = match TcpStream::connect(&state.target) {
                    Ok(server) => server,
                    Err(_) => continue, // target down: refuse by dropping
                };
                let _ = client.set_nodelay(true);
                let _ = server.set_nodelay(true);
                {
                    let mut conns = state.conns.lock().unwrap();
                    conns.retain(|c| c.peer_addr().is_ok());
                    if let (Ok(c), Ok(s)) = (client.try_clone(), server.try_clone()) {
                        conns.push(c);
                        conns.push(s);
                    }
                }
                spawn_pump(&client, &server, &state, Direction::Upstream);
                spawn_pump(&server, &client, &state, Direction::Downstream);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => std::thread::sleep(POLL),
            Err(_) => std::thread::sleep(POLL),
        }
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Direction {
    Upstream,
    Downstream,
}

fn spawn_pump(from: &TcpStream, to: &TcpStream, state: &Arc<ProxyState>, direction: Direction) {
    let (Ok(from), Ok(to)) = (from.try_clone(), to.try_clone()) else {
        return;
    };
    let state = Arc::clone(state);
    let _ = std::thread::Builder::new()
        .name("fault-proxy-pump".to_string())
        .spawn(move || pump(from, to, state, direction));
}

fn pump(mut from: TcpStream, mut to: TcpStream, state: Arc<ProxyState>, direction: Direction) {
    let _ = from.set_read_timeout(Some(POLL));
    let mut buf = [0u8; 4096];
    loop {
        if state.stop.load(Ordering::SeqCst) {
            break;
        }
        if direction == Direction::Downstream && state.paused.load(Ordering::SeqCst) {
            std::thread::sleep(POLL);
            continue;
        }
        match from.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                let mut allowed = n;
                let mut cut = false;
                if direction == Direction::Downstream {
                    let budget = state.downstream_budget.load(Ordering::SeqCst);
                    if budget != UNLIMITED {
                        if (n as u64) >= budget {
                            // The armed offset lands inside this read:
                            // forward exactly the allowed prefix, then cut.
                            allowed = budget as usize;
                            cut = true;
                            let rearm = state.rearm.load(Ordering::SeqCst);
                            state.downstream_budget.store(rearm, Ordering::SeqCst);
                            state.cuts.fetch_add(1, Ordering::SeqCst);
                        } else {
                            state
                                .downstream_budget
                                .store(budget - n as u64, Ordering::SeqCst);
                        }
                    }
                }
                if allowed > 0 && to.write_all(&buf[..allowed]).is_err() {
                    break;
                }
                if cut {
                    break;
                }
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        }
    }
    let _ = from.shutdown(Shutdown::Both);
    let _ = to.shutdown(Shutdown::Both);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forwards_and_cuts_at_the_exact_byte() {
        // An echo target that writes back whatever arrives.
        let echo = TcpListener::bind("127.0.0.1:0").unwrap();
        let echo_addr = echo.local_addr().unwrap();
        let echo_thread = std::thread::spawn(move || {
            let (mut conn, _) = echo.accept().unwrap();
            let mut buf = [0u8; 1024];
            loop {
                match conn.read(&mut buf) {
                    Ok(0) | Err(_) => break,
                    Ok(n) => {
                        if conn.write_all(&buf[..n]).is_err() {
                            break;
                        }
                    }
                }
            }
        });

        let proxy = FaultProxy::start(echo_addr.to_string()).unwrap();
        let mut client = TcpStream::connect(proxy.addr()).unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();

        // Pass-through round trip.
        client.write_all(b"hello").unwrap();
        let mut back = [0u8; 5];
        client.read_exact(&mut back).unwrap();
        assert_eq!(&back, b"hello");

        // Arm a cut 3 bytes into the next downstream burst: the client
        // receives exactly that prefix, then EOF.
        proxy.cut_downstream_after(3);
        client.write_all(b"0123456789").unwrap();
        let mut rest = Vec::new();
        client.read_to_end(&mut rest).unwrap();
        assert_eq!(rest, b"012");
        assert_eq!(proxy.cuts(), 1);

        // A new connection through the same proxy flows again.
        drop(client);
        let _ = echo_thread.join();
    }
}
