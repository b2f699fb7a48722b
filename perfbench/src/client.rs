//! A minimal blocking HTTP/1.1 keep-alive client, written here rather
//! than borrowed from the program, so that a change to the server's
//! codec cannot change how the benchmark loads it.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// One keep-alive connection and its receive buffer.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    body: (usize, usize),
    /// `X-Urlid-Reactor` of the last response: the reactor that owns
    /// this connection.
    pub reactor: Option<String>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect_timeout(&addr, IO_TIMEOUT)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(64 * 1024),
            body: (0, 0),
            reactor: None,
        })
    }

    pub fn send(&mut self, request: &[u8]) -> io::Result<()> {
        self.stream.write_all(request)
    }

    /// Read one whole response; returns its status. The body stays
    /// readable through [`Conn::body`] until the next call.
    pub fn receive(&mut self) -> io::Result<u16> {
        self.buf.clear();
        let mut scanned = 0;
        let head_end = loop {
            if let Some(i) = find_head_end(&self.buf, scanned) {
                break i;
            }
            scanned = self.buf.len().saturating_sub(3);
            self.fill()?;
        };
        let head = std::str::from_utf8(&self.buf[..head_end])
            .map_err(|_| bad("response head is not UTF-8"))?;
        let mut lines = head.split("\r\n");
        let status = lines
            .next()
            .and_then(|l| l.split(' ').nth(1))
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| bad("bad status line"))?;
        let mut length = 0usize;
        let mut reactor = None;
        for line in lines {
            if let Some((name, value)) = line.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length = value
                        .trim()
                        .parse()
                        .map_err(|_| bad("bad Content-Length"))?;
                } else if name.eq_ignore_ascii_case("x-urlid-reactor") {
                    reactor = Some(value.trim().to_owned());
                }
            }
        }
        if reactor.is_some() {
            self.reactor = reactor;
        }
        while self.buf.len() < head_end + length {
            self.fill()?;
        }
        self.body = (head_end, head_end + length);
        Ok(status)
    }

    /// Send a request and read its response.
    pub fn exchange(&mut self, request: &[u8]) -> io::Result<u16> {
        self.send(request)?;
        self.receive()
    }

    /// Body of the last response.
    pub fn body(&self) -> &[u8] {
        &self.buf[self.body.0..self.body.1]
    }

    fn fill(&mut self) -> io::Result<()> {
        let len = self.buf.len();
        self.buf.resize(len + 64 * 1024, 0);
        let n = loop {
            match self.stream.read(&mut self.buf[len..]) {
                Ok(n) => break n,
                // The in-process server's io_uring work can interrupt a
                // blocking read on a thread of the same process.
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    self.buf.truncate(len);
                    return Err(e);
                }
            }
        };
        self.buf.truncate(len + n);
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(())
    }
}

fn bad(message: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.to_owned())
}

/// Offset just past the `\r\n\r\n` ending the head, searching from `from`.
fn find_head_end(buf: &[u8], from: usize) -> Option<usize> {
    buf.get(from..)?
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map(|i| from + i + 4)
}

/// A `GET` request for `path` on a keep-alive connection.
pub fn get_request(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n").into_bytes()
}

/// Append a `POST` of the JSON `body` to `path` to `out`.
pub fn post_request(out: &mut Vec<u8>, path: &str, body: &str) {
    out.clear();
    write!(
        out,
        "POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("writing to a Vec cannot fail");
}

/// Append `s` to `out` as a JSON string literal.
pub fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// One `GET` on a fresh connection: status and body.
pub fn get(addr: SocketAddr, path: &str) -> io::Result<(u16, String)> {
    let mut conn = Conn::connect(addr)?;
    let status = conn.exchange(&get_request(path))?;
    Ok((status, String::from_utf8_lossy(conn.body()).into_owned()))
}

/// Open `n` keep-alive connections, preferring ones owned by distinct
/// reactors (read from `X-Urlid-Reactor`), as many crawler connections
/// would spread over them. With only a few connections the kernel's
/// `SO_REUSEPORT` hash can put them all on one reactor, which makes
/// throughput bimodal from run to run.
pub fn connect_spread(addr: SocketAddr, n: usize) -> io::Result<Vec<Conn>> {
    let mut kept: Vec<Conn> = Vec::new();
    let mut spare: Vec<Conn> = Vec::new();
    for _ in 0..32 {
        if kept.len() == n {
            break;
        }
        let mut conn = Conn::connect(addr)?;
        let status = conn.exchange(&get_request("/healthz"))?;
        if status != 200 {
            return Err(bad("healthz did not answer 200"));
        }
        if kept.iter().any(|c| c.reactor == conn.reactor) {
            spare.push(conn);
        } else {
            kept.push(conn);
        }
    }
    while kept.len() < n {
        match spare.pop() {
            Some(conn) => kept.push(conn),
            None => kept.push(Conn::connect(addr)?),
        }
    }
    Ok(kept)
}
