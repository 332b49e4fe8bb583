//! A blocking keep-alive client for the `naru-net` front end, split so the
//! traced run can time the wire encode, the round trip and the response
//! decode separately.

use std::io::{BufReader, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use naru_net::{decode_served, read_response, HttpLimits, Response, WireEstimate};

/// One keep-alive connection.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    limits: HttpLimits,
    request: String,
}

impl Client {
    /// Connects with a read timeout, so a wedged server fails the run
    /// instead of hanging it.
    pub fn connect(addr: SocketAddr) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| format!("nodelay: {e}"))?;
        stream.set_read_timeout(Some(Duration::from_secs(1))).map_err(|e| format!("read timeout: {e}"))?;
        let writer = stream.try_clone().map_err(|e| format!("clone socket: {e}"))?;
        // Each read timeout counts as one stall: allow a minute of silence.
        let limits = HttpLimits { max_stall_reads: 60, ..HttpLimits::default() };
        Ok(Self { reader: BufReader::new(stream), writer, limits, request: String::with_capacity(1024) })
    }

    fn round_trip(&mut self) -> Result<Response, String> {
        self.writer.write_all(self.request.as_bytes()).map_err(|e| format!("write: {e}"))?;
        read_response(&mut self.reader, &self.limits).map_err(|e| format!("read: {e}"))
    }

    /// `GET path`, returning the status code.
    pub fn get(&mut self, path: &str) -> Result<u16, String> {
        self.request.clear();
        self.request.push_str(&format!("GET {path} HTTP/1.1\r\nHost: naru\r\n\r\n"));
        Ok(self.round_trip()?.status)
    }

    /// POSTs an encoded query to `/estimate` and returns the response body.
    pub fn post_estimate(&mut self, body: &str) -> Result<String, String> {
        self.request.clear();
        self.request.push_str("POST /estimate HTTP/1.1\r\nHost: naru\r\nContent-Length: ");
        self.request.push_str(&body.len().to_string());
        self.request.push_str("\r\n\r\n");
        self.request.push_str(body);
        let response = self.round_trip()?;
        if response.status != 200 {
            return Err(format!("HTTP {}: {}", response.status, response.text().trim_end()));
        }
        Ok(response.text())
    }
}

/// Decodes a response body.
pub fn decode(body: &str) -> Result<WireEstimate, String> {
    decode_served(body).map_err(|e| format!("undecodable response: {e}"))
}
