//! A client connection with the four steps of an exchange — encode, send,
//! wait for the reply, decode — as separate calls, so each can be a span
//! and the two directions can live on two threads (the pipelined open
//! loop). Built on `hermes_server::protocol` alone; the framing it relies
//! on (`u32` big-endian length, then that many bytes) is docs/PROTOCOL.md's.

use hermes_server::protocol::{
    read_handshake, read_response, write_handshake, write_request, Request, Response,
};
use std::io::{self, Read, Write};
use std::net::TcpStream;

/// The sending half.
pub struct Sender(TcpStream);
/// The receiving half.
pub struct Receiver(TcpStream);

/// Connects and performs the handshake (the server speaks first).
pub fn connect(addr: &str) -> io::Result<(Sender, Receiver)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    read_handshake(&mut stream)?;
    write_handshake(&mut stream)?;
    Ok((Sender(stream.try_clone()?), Receiver(stream)))
}

/// One request as the bytes that go on the wire.
pub fn encode(request: &Request) -> Vec<u8> {
    let mut bytes = Vec::new();
    write_request(&mut bytes, request).expect("writing to a Vec cannot fail");
    bytes
}

/// One wire frame back into a response.
pub fn decode(frame: &[u8]) -> io::Result<Response> {
    read_response(&mut &frame[..]).map(|(response, _)| response)
}

impl Sender {
    pub fn send(&mut self, encoded: &[u8]) -> io::Result<()> {
        self.0.write_all(encoded)
    }
}

impl Receiver {
    /// Blocks until the next reply has arrived in full and returns its wire
    /// frame, length prefix included.
    pub fn wait(&mut self) -> io::Result<Vec<u8>> {
        let mut prefix = [0u8; 4];
        self.0.read_exact(&mut prefix)?;
        let length = u32::from_be_bytes(prefix);
        if length > hermes_server::MAX_MESSAGE_BYTES {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("reply announces {length} bytes, above the protocol's cap"),
            ));
        }
        let mut frame = vec![0u8; 4 + length as usize];
        frame[..4].copy_from_slice(&prefix);
        self.0.read_exact(&mut frame[4..])?;
        Ok(frame)
    }
}

/// One blocking exchange, for set-up and checks where no step is timed.
pub fn exchange(
    sender: &mut Sender,
    receiver: &mut Receiver,
    request: &Request,
) -> io::Result<Response> {
    sender.send(&encode(request))?;
    decode(&receiver.wait()?)
}
