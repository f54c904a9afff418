//! A UDP transport: S&F over real sockets.
//!
//! UDP *is* the paper's network model — unordered, unreliable datagrams
//! with no delivery feedback — so the protocol runs on it without any
//! additional machinery. Peers are resolved through a shared
//! [`AddressBook`] (in a real deployment this would be seeded the same way
//! bootstrap views are).
//!
//! Every datagram is 1 to [`MAX_FRAMES`] [frames](crate::codec), each the
//! destination id, then the message. A [`SharedSocket`] therefore serves
//! any number of node ids — its owner [drains](SharedSocket::drain) it and
//! demultiplexes on the destination — and a [`UdpTransport`] is one id's
//! handle on such a socket: its sends go out through it one frame to a
//! datagram, and its own receive calls keep the frames addressed to that
//! id. A transport bound by [`UdpTransport::bind_loopback`] is the
//! single-id case, the only id on a socket of its own.
//!
//! [`MAX_FRAMES`]: crate::codec::MAX_FRAMES

use std::collections::HashMap;
use std::io::ErrorKind;
use std::net::{SocketAddr, UdpSocket};
use std::sync::{Arc, PoisonError, RwLock};

use sandf_core::{Message, NodeId};

use crate::codec::{decode_datagram, encode_frame, Datagram, MAX_DATAGRAM_LEN};
use crate::transport::{Transport, TransportError};

/// A shared map from node ids to socket addresses.
///
/// All accessors recover from lock poisoning: the map holds plain value
/// types, so a panic mid-operation cannot leave it logically torn, and a
/// daemon multiplexing thousands of nodes must not let one panicked thread
/// cascade into every other node's sends.
#[derive(Clone, Debug, Default)]
pub struct AddressBook {
    map: Arc<RwLock<HashMap<NodeId, SocketAddr>>>,
}

impl AddressBook {
    /// Creates an empty address book.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or updates) a peer's address.
    pub fn register(&self, id: NodeId, addr: SocketAddr) {
        self.map.write().unwrap_or_else(PoisonError::into_inner).insert(id, addr);
    }

    /// Resolves a peer.
    #[must_use]
    pub fn resolve(&self, id: NodeId) -> Option<SocketAddr> {
        self.map.read().unwrap_or_else(PoisonError::into_inner).get(&id).copied()
    }

    /// Removes a peer.
    pub fn remove(&self, id: NodeId) {
        self.map.write().unwrap_or_else(PoisonError::into_inner).remove(&id);
    }

    /// Number of registered peers.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.read().unwrap_or_else(PoisonError::into_inner).len()
    }

    /// Whether the book is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A non-blocking loopback UDP socket carrying frames for any number of
/// node ids. Clones share the one socket.
#[derive(Clone, Debug)]
pub struct SharedSocket {
    socket: Arc<UdpSocket>,
    addr: SocketAddr,
}

impl SharedSocket {
    /// Binds a loopback socket on an ephemeral port.
    ///
    /// # Errors
    ///
    /// Returns [`TransportError::Io`] if binding fails.
    pub fn bind_loopback() -> Result<Self, TransportError> {
        let socket = UdpSocket::bind(("127.0.0.1", 0)).map_err(io_err)?;
        socket.set_nonblocking(true).map_err(io_err)?;
        let addr = socket.local_addr().map_err(io_err)?;
        Ok(Self { socket: Arc::new(socket), addr })
    }

    /// The bound socket address.
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Registers `id` at this socket's address in `book` and returns its
    /// handle.
    #[must_use]
    pub fn endpoint(&self, id: NodeId, book: &AddressBook) -> UdpTransport {
        book.register(id, self.addr);
        UdpTransport { id, socket: self.clone(), book: book.clone() }
    }

    /// Sends `message` to node `to` at `addr` as a datagram of one frame.
    /// A full send buffer is loss, which the protocol tolerates.
    ///
    /// # Errors
    ///
    /// Returns [`TransportError::Io`] on any other socket error.
    pub fn send_frame(
        &self,
        addr: SocketAddr,
        to: NodeId,
        message: Message,
    ) -> Result<(), TransportError> {
        self.send_to(addr, &encode_frame(to, message))
    }

    /// Sends the frames packed in `datagram` to `addr` as one datagram, a
    /// full send buffer again being loss (of every frame in it).
    ///
    /// # Errors
    ///
    /// Returns [`TransportError::Io`] on any other socket error.
    pub fn send_datagram(
        &self,
        addr: SocketAddr,
        datagram: &Datagram,
    ) -> Result<(), TransportError> {
        self.send_to(addr, datagram.as_bytes())
    }

    fn send_to(&self, addr: SocketAddr, bytes: &[u8]) -> Result<(), TransportError> {
        match self.socket.send_to(bytes, addr) {
            Ok(_) => Ok(()),
            Err(e) if e.kind() == ErrorKind::WouldBlock => Ok(()),
            Err(e) => Err(io_err(e)),
        }
    }

    /// Takes datagrams off the socket without blocking, handing each of
    /// their frames to `deliver` with its destination id, and returns how
    /// many frames it handed over. This is how the owner of a socket with
    /// several endpoints receives: an endpoint's own receive calls would
    /// discard its neighbours' frames.
    ///
    /// `max` counts frames but is checked once per datagram, which is taken
    /// whole: the drain stops at the first datagram boundary at or past
    /// `max` frames, so it can hand over up to [`MAX_FRAMES`] − 1 more. A
    /// datagram that is not 1 to [`MAX_FRAMES`] well-formed frames is
    /// dropped whole, like line noise.
    ///
    /// # Errors
    ///
    /// Returns [`TransportError::Io`] on a socket error; frames taken
    /// before it have been delivered.
    ///
    /// [`MAX_FRAMES`]: crate::codec::MAX_FRAMES
    pub fn drain(
        &self,
        max: usize,
        mut deliver: impl FnMut(NodeId, Message),
    ) -> Result<usize, TransportError> {
        // One byte more than the longest datagram: a longer one is cut to a
        // length the decoder rejects.
        let mut buf = [0u8; MAX_DATAGRAM_LEN + 1];
        let mut taken = 0;
        while taken < max {
            let len = match self.socket.recv_from(&mut buf) {
                Ok((len, _)) => len,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) => return Err(io_err(e)),
            };
            if let Ok(frames) = decode_datagram(&buf[..len]) {
                for (to, message) in frames {
                    deliver(to, message);
                    taken += 1;
                }
            }
        }
        Ok(taken)
    }
}

/// One node id's endpoint on a [`SharedSocket`].
#[derive(Debug)]
pub struct UdpTransport {
    id: NodeId,
    socket: SharedSocket,
    book: AddressBook,
}

impl UdpTransport {
    /// Binds a loopback socket on an ephemeral port for `id` alone and
    /// registers it in the address book.
    ///
    /// # Errors
    ///
    /// Returns [`TransportError::Io`] if binding fails.
    pub fn bind_loopback(id: NodeId, book: &AddressBook) -> Result<Self, TransportError> {
        Ok(SharedSocket::bind_loopback()?.endpoint(id, book))
    }

    /// The bound socket address.
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.socket.addr
    }
}

fn io_err(e: std::io::Error) -> TransportError {
    TransportError::Io { message: e.to_string() }
}

impl Transport for UdpTransport {
    fn local_id(&self) -> NodeId {
        self.id
    }

    fn send(&mut self, to: NodeId, message: Message) -> Result<(), TransportError> {
        match self.book.resolve(to) {
            Some(addr) => self.socket.send_frame(addr, to, message),
            // A vanished peer is indistinguishable from loss to S&F.
            None => Ok(()),
        }
    }

    /// The next pending message addressed to this id. Frames for any other
    /// id are dropped, like line noise, and so is every frame after the
    /// first for this id in a datagram of several: on a socket with several
    /// endpoints, or from a sender that packs frames, receive through
    /// [`SharedSocket::drain`] instead.
    fn try_recv(&mut self) -> Result<Option<Message>, TransportError> {
        let id = self.id;
        let mut mine = None;
        while mine.is_none() {
            let taken = self.socket.drain(1, |to, message| {
                if to == id {
                    mine.get_or_insert(message);
                }
            })?;
            if taken == 0 {
                break;
            }
        }
        Ok(mine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{encode, FRAME_LEN, MAX_FRAMES};

    /// Polls `recv` (loopback is asynchronous) until it yields a message.
    fn wait_for(mut recv: impl FnMut() -> Option<Message>) -> Option<Message> {
        for _ in 0..200 {
            if let Some(message) = recv() {
                return Some(message);
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        None
    }

    #[test]
    fn sends_and_receives_over_loopback() {
        let book = AddressBook::new();
        let mut a = UdpTransport::bind_loopback(NodeId::new(0), &book).unwrap();
        let mut b = UdpTransport::bind_loopback(NodeId::new(1), &book).unwrap();
        assert_eq!(book.len(), 2);

        let msg = Message::new(NodeId::new(0), NodeId::new(7), true);
        a.send(NodeId::new(1), msg).unwrap();

        // Two sockets, nothing shared but the address book.
        assert_ne!(a.local_addr(), b.local_addr());
        assert_eq!(wait_for(|| b.try_recv().unwrap()), Some(msg));
    }

    #[test]
    fn unknown_peer_is_treated_as_loss() {
        let book = AddressBook::new();
        let mut a = UdpTransport::bind_loopback(NodeId::new(0), &book).unwrap();
        assert_eq!(
            a.send(NodeId::new(42), Message::new(NodeId::new(0), NodeId::new(1), false)),
            Ok(())
        );
    }

    #[test]
    fn malformed_datagrams_are_skipped() {
        let book = AddressBook::new();
        let mut b = UdpTransport::bind_loopback(NodeId::new(1), &book).unwrap();
        let addr = b.local_addr();
        let raw = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
        let msg = Message::new(NodeId::new(9), NodeId::new(8), false);
        raw.send_to(&[1, 2, 3], addr).unwrap();
        // A bare body, and a frame with a byte too many.
        raw.send_to(&encode(msg), addr).unwrap();
        let mut long = encode_frame(NodeId::new(1), msg).to_vec();
        long.push(0);
        raw.send_to(&long, addr).unwrap();
        raw.send_to(&encode_frame(NodeId::new(1), msg), addr).unwrap();
        assert_eq!(
            wait_for(|| b.try_recv().unwrap()),
            Some(msg),
            "the well-formed datagram must survive"
        );
        assert_eq!(b.try_recv().unwrap(), None, "and nothing else does");
    }

    #[test]
    fn frames_for_another_id_are_skipped_by_an_endpoint() {
        let book = AddressBook::new();
        let socket = SharedSocket::bind_loopback().unwrap();
        let mut one = socket.endpoint(NodeId::new(1), &book);
        let mut two = socket.endpoint(NodeId::new(2), &book);
        assert_eq!(one.local_addr(), two.local_addr());
        assert_eq!(book.resolve(NodeId::new(2)), Some(socket.local_addr()));

        let for_two = Message::new(NodeId::new(1), NodeId::new(20), false);
        let for_one = Message::new(NodeId::new(2), NodeId::new(10), true);
        one.send(NodeId::new(2), for_two).unwrap();
        two.send(NodeId::new(1), for_one).unwrap();
        // `one` reads past the frame for 2, which is gone for good.
        assert_eq!(wait_for(|| one.try_recv().unwrap()), Some(for_one));
        assert_eq!(two.try_recv().unwrap(), None);

        one.send(NodeId::new(2), for_two).unwrap();
        two.send(NodeId::new(1), for_one).unwrap();
        let mut got = Vec::new();
        for _ in 0..200 {
            if one.recv_batch(&mut got, 8).unwrap() > 0 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(got, [for_one]);
    }

    #[test]
    fn drain_hands_over_each_frame_with_its_destination_up_to_max() {
        let book = AddressBook::new();
        let socket = SharedSocket::bind_loopback().unwrap();
        let mut senders: Vec<UdpTransport> =
            (0..4).map(|id| socket.endpoint(NodeId::new(id), &book)).collect();
        // Sender k writes to k + 1; the last one to an id nobody holds but
        // the book resolves, which the drain must still report.
        book.register(NodeId::new(u64::MAX), socket.local_addr());
        for (k, sender) in senders.iter_mut().enumerate() {
            let to = if k == 3 { NodeId::new(u64::MAX) } else { NodeId::new(k as u64 + 1) };
            sender.send(to, Message::new(NodeId::new(k as u64), to, k % 2 == 0)).unwrap();
        }
        std::thread::sleep(std::time::Duration::from_millis(20));

        let mut seen = Vec::new();
        let first = socket.drain(3, |to, message| seen.push((to, message))).unwrap();
        assert_eq!((first, seen.len()), (3, 3), "max bounds one drain");
        let rest = socket.drain(usize::MAX, |to, message| seen.push((to, message))).unwrap();
        assert_eq!((rest, seen.len()), (1, 4));
        for (to, message) in &seen {
            assert_eq!(message.payload, *to, "destination and message travel together");
        }
        assert!(seen.iter().any(|(to, _)| *to == NodeId::new(u64::MAX)));
        assert_eq!(socket.drain(8, |_, _| panic!("the socket is empty")).unwrap(), 0);
    }

    /// `count` frames, frame `k` for id `k` carrying payload `k`.
    fn packed(count: u64) -> Datagram {
        let mut datagram = Datagram::default();
        for k in 0..count {
            datagram.push(NodeId::new(k), Message::new(NodeId::new(99), NodeId::new(k), false));
        }
        datagram
    }

    /// Drains `socket` until `frames` frames came off it or 200 ms passed.
    fn drain_until(socket: &SharedSocket, frames: usize, max: usize) -> Vec<(NodeId, Message)> {
        let mut seen = Vec::new();
        for _ in 0..200 {
            socket.drain(max, |to, message| seen.push((to, message))).unwrap();
            if seen.len() >= frames {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        seen
    }

    #[test]
    fn drain_counts_frames_but_takes_datagrams_whole() {
        let socket = SharedSocket::bind_loopback().unwrap();
        socket.send_datagram(socket.local_addr(), &packed(5)).unwrap();
        let lone = Message::new(NodeId::new(1), NodeId::new(2), true);
        socket.send_frame(socket.local_addr(), NodeId::new(7), lone).unwrap();

        // A max of 3 frames still takes the 5-frame datagram whole, in
        // order, and stops at its end.
        let seen = drain_until(&socket, 1, 3);
        assert_eq!(seen.len(), 5, "the datagram is taken whole, and only it");
        for (k, (to, message)) in seen.iter().enumerate() {
            assert_eq!((to.as_u64(), message.payload.as_u64()), (k as u64, k as u64));
        }
        assert_eq!(drain_until(&socket, 1, 3), [(NodeId::new(7), lone)]);
    }

    #[test]
    fn malformed_packed_datagrams_are_dropped_whole() {
        let socket = SharedSocket::bind_loopback().unwrap();
        let raw = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
        let full = packed(MAX_FRAMES as u64);
        // One frame too many, and a good frame before one with bad flags.
        let mut too_long = full.as_bytes().to_vec();
        too_long.extend_from_slice(&full.as_bytes()[..FRAME_LEN]);
        let mut bad_second = packed(2).as_bytes().to_vec();
        bad_second[2 * FRAME_LEN - 1] = 0b0000_0100;
        for datagram in [&too_long[..], &bad_second, full.as_bytes()] {
            raw.send_to(datagram, socket.local_addr()).unwrap();
        }
        let seen = drain_until(&socket, MAX_FRAMES, usize::MAX);
        assert_eq!(seen.len(), MAX_FRAMES, "only the well-formed datagram survives");
        assert!(seen.iter().enumerate().all(|(k, (to, _))| to.as_u64() == k as u64));
    }

    #[test]
    fn recv_batch_drains_all_pending_datagrams_in_one_wakeup() {
        let book = AddressBook::new();
        let mut a = UdpTransport::bind_loopback(NodeId::new(0), &book).unwrap();
        let mut b = UdpTransport::bind_loopback(NodeId::new(1), &book).unwrap();

        const PENDING: usize = 64;
        for i in 0..PENDING {
            let msg = Message::new(NodeId::new(0), NodeId::new(i as u64), i % 2 == 0);
            a.send(NodeId::new(1), msg).unwrap();
        }

        // Loopback UDP is effectively reliable but asynchronous; wait until
        // the whole burst is queued, then assert a single batch call drains
        // it (the old recv path returned at most one message per call).
        let mut got = Vec::new();
        for _ in 0..500 {
            b.recv_batch(&mut got, PENDING * 2).unwrap();
            if got.len() >= PENDING {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(got.len(), PENDING, "burst must be fully drained");
        let payloads: std::collections::HashSet<u64> =
            got.iter().map(|m| m.payload.as_u64()).collect();
        assert_eq!(payloads.len(), PENDING, "no datagram duplicated or corrupted");

        // Once the backlog exists, one call must take it all: re-send and
        // poll with a zero-work probe until readiness, then batch once.
        for i in 0..PENDING {
            a.send(NodeId::new(1), Message::new(NodeId::new(0), NodeId::new(i as u64), false))
                .unwrap();
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
        let mut second = Vec::new();
        let drained = b.recv_batch(&mut second, usize::MAX).unwrap();
        assert!(drained >= PENDING / 2, "a single wakeup should drain the backlog, got {drained}");
        assert_eq!(drained, second.len());
    }

    #[test]
    fn recv_batch_respects_max() {
        let book = AddressBook::new();
        let mut a = UdpTransport::bind_loopback(NodeId::new(0), &book).unwrap();
        let mut b = UdpTransport::bind_loopback(NodeId::new(1), &book).unwrap();
        for i in 0..8 {
            a.send(NodeId::new(1), Message::new(NodeId::new(0), NodeId::new(i), false)).unwrap();
        }
        let mut got = Vec::new();
        let mut calls = 0;
        for _ in 0..2000 {
            let before = got.len();
            let drained = b.recv_batch(&mut got, 3).unwrap();
            assert!(drained <= 3, "cap must bound a single batch, got {drained}");
            assert_eq!(got.len(), before + drained, "return value matches appended count");
            if drained > 0 {
                calls += 1;
            }
            if got.len() == 8 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(got.len(), 8, "every datagram eventually drains");
        assert!(calls >= 3, "8 messages at cap 3 need at least 3 draining calls");
    }

    #[test]
    fn address_book_recovers_from_poisoned_lock() {
        let book = AddressBook::new();
        let addr: SocketAddr = "127.0.0.1:9100".parse().unwrap();
        book.register(NodeId::new(5), addr);

        // Poison the inner lock by panicking while holding the write guard.
        let poisoner = book.clone();
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.map.write().unwrap();
            panic!("poison the address book on purpose");
        })
        .join();

        // Every accessor must keep working instead of propagating the panic.
        assert_eq!(book.resolve(NodeId::new(5)), Some(addr));
        assert_eq!(book.len(), 1);
        let addr2: SocketAddr = "127.0.0.1:9101".parse().unwrap();
        book.register(NodeId::new(6), addr2);
        assert_eq!(book.resolve(NodeId::new(6)), Some(addr2));
        book.remove(NodeId::new(5));
        assert_eq!(book.resolve(NodeId::new(5)), None);
        assert!(!book.is_empty());
    }

    #[test]
    fn address_book_updates() {
        let book = AddressBook::new();
        assert!(book.is_empty());
        let addr: SocketAddr = "127.0.0.1:9000".parse().unwrap();
        book.register(NodeId::new(1), addr);
        assert_eq!(book.resolve(NodeId::new(1)), Some(addr));
        book.remove(NodeId::new(1));
        assert_eq!(book.resolve(NodeId::new(1)), None);
    }
}
