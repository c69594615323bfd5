package tcp

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"kmgraph/internal/transport"
	"kmgraph/internal/wire"
)

// A peer link's timeouts.
const (
	// dialTimeout bounds one TCP connect attempt.
	dialTimeout = 5 * time.Second
	// dialAttempts is how many times Dial retries the connect+handshake
	// before giving up. Retries cover the window where a peer has not yet
	// received its job spec and opened its listener routing for this
	// cluster.
	dialAttempts = 40
	// dialBackoff separates retries.
	dialBackoff = 250 * time.Millisecond
	// handshakeTimeout bounds the wait for the hello reply after a
	// connect. It is deliberately longer than dialTimeout: the passive
	// side answers only once its own job spec arrives, so the dialer waits
	// out that skew inside one attempt instead of churning retries.
	handshakeTimeout = 30 * time.Second
	// writeTimeout bounds one frame write.
	writeTimeout = 30 * time.Second
	// idleTimeout bounds the silence a barrier wait tolerates — generous
	// enough to cover a peer's shard-load skew before its first barrier.
	// Between runs (a residency waiting for its next command) a link may
	// stay silent for as long as it is open.
	idleTimeout = 2 * time.Minute
)

// Peer is one established link to another participant of a distributed
// cluster: the socket, the remote's hosted range, a write buffer (one
// frame per round, one syscall per frame), and a read loop that decodes
// inbound round frames under an idle deadline and latches the first
// error — after which every barrier wait on this peer reports
// transport.ErrLinkDown instead of blocking.
type Peer struct {
	Index  int // remote participant index
	Lo, Hi int // remote hosted machine range

	conn  net.Conn
	addr  string // remote address, for structured link-down errors
	k     int
	stats linkStats

	// Wire accounting for the flight recorder. Sent counters are only
	// touched by the engine goroutine in writeRound; recv counters are
	// atomics because the read loop increments them while the engine
	// samples deltas at each barrier.
	sentFrames, sentBytes int64
	recvFrames, recvBytes atomic.Int64

	wbuf  []byte // frame staging: header + body, one write per round
	stage []transport.Message

	frames  chan *RoundFrame
	readErr error // valid once frames is closed
	arena   *wire.Arena

	closeOnce sync.Once
	done      chan struct{}
}

// newPeer wraps an established, handshaken connection. It starts the
// read loop.
func newPeer(conn net.Conn, remote *Hello) *Peer {
	p := &Peer{
		Index:  remote.Index,
		Lo:     remote.Lo,
		Hi:     remote.Hi,
		conn:   conn,
		addr:   conn.RemoteAddr().String(),
		k:      remote.K,
		stats:  newLinkStats(remote.Index),
		frames: make(chan *RoundFrame, 4),
		arena:  wire.NewArena(0),
		done:   make(chan struct{}),
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true) // a round frame must not wait out Nagle
	}
	go p.readLoop()
	return p
}

// readLoop decodes inbound frames until the link dies, its read deadline
// (set by each barrier, Transport.Round) passes, or Close. The first error
// is latched and the frame channel closed, so a blocked barrier wait wakes
// immediately.
func (p *Peer) readLoop() {
	var buf []byte
	var err error
	for err == nil {
		var t FrameType
		var body []byte
		t, body, err = ReadFrame(p.conn, &buf)
		if err != nil {
			break
		}
		p.stats.framesRecv.Inc()
		p.stats.bytesRecv.Add(int64(len(body)) + frameHeaderLen)
		p.recvFrames.Add(1)
		p.recvBytes.Add(int64(len(body)) + frameHeaderLen)
		switch t {
		case FrameRound:
			f := &RoundFrame{}
			if err = DecodeRound(body, p.k, p.arena, f); err != nil {
				break
			}
			select {
			case p.frames <- f:
			case <-p.done:
				err = net.ErrClosed
			}
		case FrameBye:
			err = io.EOF
		default:
			err = fmt.Errorf("tcp: unexpected frame type %d on peer link", t)
		}
	}
	p.readErr = err
	close(p.frames)
}

// writeRound stages and writes one round frame in a single syscall.
func (p *Peer) writeRound(seq uint64, doneDelta int, msgs []transport.Message) error {
	b := AppendFrameHeader(p.wbuf[:0], FrameRound)
	b = AppendRoundBody(b, seq, doneDelta, msgs)
	b = FinishFrame(b, 0)
	p.wbuf = b
	p.conn.SetWriteDeadline(time.Now().Add(writeTimeout))
	if _, err := p.conn.Write(b); err != nil {
		return err
	}
	p.stats.framesSent.Inc()
	p.stats.bytesSent.Add(int64(len(b)))
	p.sentFrames++
	p.sentBytes += int64(len(b))
	return nil
}

// recvRound blocks until the peer's announcement for barrier seq
// arrives, the link dies, or the idle deadline passes in the read loop.
// Failures carry the structured transport.LinkDownError: a read-loop
// timeout classifies as a stall (the socket is formally alive), any
// other death as a crash, and a wrong barrier sequence as a desync.
func (p *Peer) recvRound(seq uint64) (*RoundFrame, error) {
	f, ok := <-p.frames
	if !ok {
		reason := transport.ReasonCrash
		var ne net.Error
		if errors.As(p.readErr, &ne) && ne.Timeout() {
			reason = transport.ReasonStall
		}
		return nil, &transport.LinkDownError{
			Peer: p.Index, Addr: p.addr, Round: seq - 1, Reason: reason,
			Err: fmt.Errorf("tcp: machines [%d,%d): %v", p.Lo, p.Hi, p.readErr),
		}
	}
	if f.Seq != seq {
		return nil, &transport.LinkDownError{
			Peer: p.Index, Addr: p.addr, Round: seq - 1, Reason: transport.ReasonDesync,
			Err: fmt.Errorf("tcp: barrier desync (got seq %d, want %d)", f.Seq, seq),
		}
	}
	return f, nil
}

// Close shuts the link down: a best-effort Bye, then the socket. Safe
// to call more than once and concurrently with a blocked recvRound.
func (p *Peer) Close() error {
	p.closeOnce.Do(func() {
		close(p.done)
		p.conn.SetWriteDeadline(time.Now().Add(time.Second))
		p.conn.Write(AppendFrame(nil, FrameBye, nil))
		p.conn.Close()
	})
	return nil
}

// WriteFrame sends one complete frame on conn under the write timeout.
func WriteFrame(conn net.Conn, t FrameType, body []byte) error {
	conn.SetWriteDeadline(time.Now().Add(writeTimeout))
	_, err := conn.Write(AppendFrame(nil, t, body))
	return err
}

// readHello reads and decodes the peer's FrameHello under the
// handshake timeout.
func readHello(conn net.Conn) (*Hello, error) {
	conn.SetReadDeadline(time.Now().Add(handshakeTimeout))
	var buf []byte
	t, body, err := ReadFrame(conn, &buf)
	if err != nil {
		return nil, err
	}
	if t != FrameHello {
		return nil, fmt.Errorf("tcp: expected hello, got frame type %d", t)
	}
	return DecodeHello(body)
}

// ValidateHello checks that a remote hello describes the same cluster
// as ours: identity, size, seed, and link parameters. A mismatch is
// counted as a handshake failure.
func ValidateHello(theirs, ours *Hello) error {
	switch {
	case theirs.ClusterID != ours.ClusterID:
		return fmt.Errorf("tcp: handshake for cluster %#x, want %#x", theirs.ClusterID, ours.ClusterID)
	case theirs.K != ours.K:
		return fmt.Errorf("tcp: handshake with k=%d, want %d", theirs.K, ours.K)
	case theirs.Seed != ours.Seed:
		return fmt.Errorf("tcp: handshake with seed %d, want %d", theirs.Seed, ours.Seed)
	case theirs.BandwidthBits != ours.BandwidthBits,
		theirs.MessageOverheadBits != ours.MessageOverheadBits:
		return fmt.Errorf("tcp: handshake with link parameters B=%d/H=%d, want B=%d/H=%d",
			theirs.BandwidthBits, theirs.MessageOverheadBits,
			ours.BandwidthBits, ours.MessageOverheadBits)
	case theirs.Index == ours.Index:
		return fmt.Errorf("tcp: handshake from our own index %d", theirs.Index)
	}
	// Hosted ranges must not overlap: each machine has exactly one owner.
	if theirs.Lo < ours.Hi && ours.Lo < theirs.Hi {
		return fmt.Errorf("tcp: peer %d hosts [%d,%d), overlapping our [%d,%d)",
			theirs.Index, theirs.Lo, theirs.Hi, ours.Lo, ours.Hi)
	}
	return nil
}

// errHandshake marks permanent handshake rejections, which Dial must
// not retry.
var errHandshake = fmt.Errorf("tcp: handshake rejected")

// Dial connects to a lower-index participant at addr, performs the
// handshake (send ours, read theirs, validate), and returns the
// established link. Connect and handshake failures are retried (a peer
// may not have learned about the cluster yet); each
// retry increments the reconnect counter. Dial returns ctx.Err() as soon
// as ctx ends, whether it is connecting, backing off or waiting for the
// peer's hello.
func Dial(ctx context.Context, addr string, ours *Hello, wantIndex int) (*Peer, error) {
	dialer := net.Dialer{Timeout: dialTimeout}
	var lastErr error
	for attempt := 0; attempt < dialAttempts; attempt++ {
		if attempt > 0 {
			reconnectsCounter().Inc()
			backoff := time.NewTimer(dialBackoff)
			select {
			case <-backoff.C:
			case <-ctx.Done():
				backoff.Stop()
			}
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		conn, err := dialer.DialContext(ctx, "tcp", addr)
		if err != nil {
			lastErr = err
			continue
		}
		// A listener that accepts and never answers would hold the hello
		// read for handshakeTimeout; closing the connection ends it at once.
		stop := context.AfterFunc(ctx, func() { conn.Close() })
		theirs, err := handshakeActive(conn, ours)
		if !stop() {
			return nil, ctx.Err()
		}
		if err != nil {
			conn.Close()
			if errors.Is(err, errHandshake) {
				return nil, err
			}
			lastErr = err
			continue
		}
		if theirs.Index != wantIndex {
			conn.Close()
			handshakeFailuresCounter().Inc()
			return nil, fmt.Errorf("tcp: %s is participant %d, want %d", addr, theirs.Index, wantIndex)
		}
		return newPeer(conn, theirs), nil
	}
	return nil, fmt.Errorf("tcp: dialing peer %d at %s: %w", wantIndex, addr, lastErr)
}

func handshakeActive(conn net.Conn, ours *Hello) (*Hello, error) {
	if err := WriteFrame(conn, FrameHello, AppendHello(nil, ours)); err != nil {
		return nil, err
	}
	theirs, err := readHello(conn)
	if err != nil {
		return nil, err
	}
	if err := ValidateHello(theirs, ours); err != nil {
		handshakeFailuresCounter().Inc()
		return nil, fmt.Errorf("%w: %v", errHandshake, err)
	}
	return theirs, nil
}

// AcceptPeer completes the passive side of a peer handshake: the
// listener's router has already read the remote's hello; validate it,
// answer with ours, and return the established link.
func AcceptPeer(conn net.Conn, theirs, ours *Hello) (*Peer, error) {
	if err := ValidateHello(theirs, ours); err != nil {
		handshakeFailuresCounter().Inc()
		return nil, err
	}
	if err := WriteFrame(conn, FrameHello, AppendHello(nil, ours)); err != nil {
		return nil, err
	}
	return newPeer(conn, theirs), nil
}
