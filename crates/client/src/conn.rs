//! One framed TCP connection to a node, and the client-side errors.

use crate::protocol::{NodeRole, RemoteError, Request, Response, StatsReport};
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::time::Duration;
use tibpre_pairing::{DecodeCtx, PairingParams};
use tibpre_wire::{
    read_frame, write_frame, DecodeError, FrameError, WireDecode, WireEncode, DEFAULT_MAX_FRAME,
};

/// Anything that can go wrong between building a request and holding its
/// decoded response.
#[derive(Debug)]
pub enum ClientError {
    /// The socket failed (connect, read, or write).
    Io(io::Error),
    /// A frame was torn or oversized.
    Frame(FrameError),
    /// A frame arrived but its payload did not decode.
    Decode(DecodeError),
    /// The node reported a failure.
    Remote(RemoteError),
    /// The node answered with a response variant the request cannot produce.
    UnexpectedResponse(&'static str),
    /// The node closed the connection between frames.
    Disconnected,
}

impl core::fmt::Display for ClientError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "I/O error: {e}"),
            ClientError::Frame(e) => write!(f, "framing error: {e}"),
            ClientError::Decode(e) => write!(f, "undecodable response: {e}"),
            ClientError::Remote(e) => write!(f, "node error: {e}"),
            ClientError::UnexpectedResponse(what) => {
                write!(f, "unexpected response variant: {what}")
            }
            ClientError::Disconnected => write!(f, "node closed the connection"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        ClientError::Frame(e)
    }
}

impl From<DecodeError> for ClientError {
    fn from(e: DecodeError) -> Self {
        ClientError::Decode(e)
    }
}

/// Client-side result alias.
pub type Result<T> = core::result::Result<T, ClientError>;

/// Connection knobs shared by every client in this crate.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Read timeout per response (None blocks forever).
    pub read_timeout: Option<Duration>,
    /// Write timeout per request (None blocks forever).
    pub write_timeout: Option<Duration>,
    /// Maximum accepted frame size, both directions.
    pub max_frame: usize,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(30)),
            max_frame: DEFAULT_MAX_FRAME,
        }
    }
}

/// One framed request/response connection to a node.
///
/// The protocol answers every request with exactly one response frame, in
/// request order, so a connection supports two usage modes:
///
/// * **lockstep** — [`Self::call`]: one request, block for its response;
/// * **pipelined** — [`Self::send`] several requests (the writer buffers
///   them; [`Self::flush`] pushes the whole run in one segment), then
///   [`Self::receive`] each response in order.  [`Self::call_pipelined`]
///   packages the common burst shape.
///
/// Responses are matched to requests purely by order — the invariant the
/// server preserves per connection.  Additional concurrency
/// comes from opening more connections (see [`crate::RemoteStore`]'s pool).
pub struct Connection {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    ctx: DecodeCtx,
    max_frame: usize,
}

impl Connection {
    /// Connects and applies the configured timeouts.
    pub fn connect(
        addr: impl ToSocketAddrs,
        params: &Arc<PairingParams>,
        config: &ClientConfig,
    ) -> Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(config.read_timeout)?;
        stream.set_write_timeout(config.write_timeout)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        let writer = BufWriter::new(stream);
        Ok(Connection {
            reader,
            writer,
            ctx: DecodeCtx::from(params),
            max_frame: config.max_frame,
        })
    }

    /// Sends one request and blocks for its response.  A
    /// [`Response::Error`] comes back as [`ClientError::Remote`], so the
    /// `Ok` arm always holds a success variant.
    pub fn call(&mut self, request: &Request) -> Result<Response> {
        self.send(request)?;
        self.flush()?;
        match self.receive()? {
            Response::Error(err) => Err(ClientError::Remote(err)),
            response => Ok(response),
        }
    }

    /// Queues one request frame into the writer without flushing.  The
    /// response is owed: balance every `send` with a [`Self::receive`].
    pub fn send(&mut self, request: &Request) -> Result<()> {
        write_frame(&mut self.writer, &request.to_wire_bytes(), self.max_frame)?;
        Ok(())
    }

    /// Flushes all queued request frames to the socket in one push.
    pub fn flush(&mut self) -> Result<()> {
        self.writer.flush()?;
        Ok(())
    }

    /// Blocks for the next response frame, in request order.  Unlike
    /// [`Self::call`], a [`Response::Error`] is returned as a *value* — a
    /// pipelined caller must keep consuming the remaining in-flight
    /// responses even when one of them is a denial.
    pub fn receive(&mut self) -> Result<Response> {
        let payload =
            read_frame(&mut self.reader, self.max_frame)?.ok_or(ClientError::Disconnected)?;
        Ok(Response::from_wire_bytes(&payload, &self.ctx)?)
    }

    /// Sends a whole burst pipelined — all requests in one flush, then all
    /// responses read back in order.  Errors travel as
    /// [`Response::Error`] values in the result vector, which always has
    /// exactly `requests.len()` entries on success.
    pub fn call_pipelined(&mut self, requests: &[Request]) -> Result<Vec<Response>> {
        for request in requests {
            self.send(request)?;
        }
        self.flush()?;
        let mut responses = Vec::with_capacity(requests.len());
        for _ in requests {
            responses.push(self.receive()?);
        }
        Ok(responses)
    }

    /// [`Self::call`] expecting a bare [`Response::Ok`].
    pub fn call_ok(&mut self, request: &Request) -> Result<()> {
        match self.call(request)? {
            Response::Ok => Ok(()),
            _ => Err(ClientError::UnexpectedResponse("expected Ok")),
        }
    }

    /// Health-checks the node and returns `(role, level_name)`.
    pub fn ping(&mut self) -> Result<(NodeRole, String)> {
        match self.call(&Request::Ping)? {
            Response::Pong { role, level } => Ok((role, level)),
            _ => Err(ClientError::UnexpectedResponse("expected Pong")),
        }
    }

    /// What the node reports about itself: its own run and backlog
    /// counters, and a store's replication positions and write gate.
    pub fn stats(&mut self) -> Result<StatsReport> {
        match self.call(&Request::Stats)? {
            Response::Stats(report) => Ok(report),
            _ => Err(ClientError::UnexpectedResponse("expected Stats")),
        }
    }

    /// Asks the node to drain and exit.
    pub fn shutdown(&mut self) -> Result<()> {
        match self.call(&Request::Shutdown)? {
            Response::ShuttingDown => Ok(()),
            _ => Err(ClientError::UnexpectedResponse("expected ShuttingDown")),
        }
    }

    /// Whether the connection can carry another call: the peer has not
    /// closed it and no unread byte waits on it.  A non-blocking `peek`
    /// tells without consuming anything.
    pub(crate) fn reusable(&self) -> bool {
        let stream = self.reader.get_ref();
        if !self.reader.buffer().is_empty() || stream.set_nonblocking(true).is_err() {
            return false;
        }
        let quiet =
            matches!(stream.peek(&mut [0]), Err(e) if e.kind() == io::ErrorKind::WouldBlock);
        quiet && stream.set_nonblocking(false).is_ok()
    }

    /// The decode context this connection validates responses under.
    pub fn ctx(&self) -> &DecodeCtx {
        &self.ctx
    }
}

impl core::fmt::Debug for Connection {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Connection(max_frame={})", self.max_frame)
    }
}
