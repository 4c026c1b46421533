package server

import (
	"bufio"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"time"

	"dcsketch/internal/wire"
)

// Client is an edge-side connection to the monitor daemon: it streams flow
// updates as the sequenced batches of one replay session and issues top-k
// queries. A Client is not safe for concurrent use; run one per exporter
// goroutine.
//
// A Client is poisoned by its first transport error: any mid-frame write or
// read failure leaves the byte stream desynchronized (the peer may hold a
// partial frame, or an unread reply is in flight), so every later call
// fails fast with the original error instead of silently corrupting the
// framing. In-band MsgError replies arrive on an intact stream and do not
// poison. There is no reconnection here — that is internal/export's job.
type Client struct {
	conn    net.Conn
	r       *bufio.Reader
	w       *bufio.Writer
	timeout time.Duration
	scratch []byte
	// session is the replay session SendUpdates opened with its hello (0
	// until the first call); seq is the last batch sequence it sent.
	session, seq uint64
	// err is the sticky first transport error; once set, roundTrip
	// refuses without touching the connection.
	err error
}

// ErrPoisoned is wrapped by calls on a client whose connection already
// failed mid-frame.
var ErrPoisoned = errors.New("server: client poisoned by earlier transport error")

// Dial connects to the daemon at addr.
func Dial(addr string, timeout time.Duration) (*Client, error) {
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("server: dial %s: %w", addr, err)
	}
	return &Client{
		conn:    conn,
		r:       bufio.NewReader(conn),
		w:       bufio.NewWriter(conn),
		timeout: timeout,
	}, nil
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }

// roundTrip writes one frame and reads the reply. Any transport failure
// poisons the client: a half-written request or half-read reply cannot be
// resynchronized, so later round trips on this connection would pair
// requests with the wrong replies.
func (c *Client) roundTrip(t wire.MsgType, payload []byte) (wire.MsgType, []byte, error) {
	if c.err != nil {
		return 0, nil, fmt.Errorf("%w: %w", ErrPoisoned, c.err)
	}
	if err := c.conn.SetDeadline(time.Now().Add(c.timeout)); err != nil {
		c.err = err
		return 0, nil, fmt.Errorf("server: set deadline: %w", err)
	}
	if err := wire.WriteFrame(c.w, t, payload); err != nil {
		c.err = err
		return 0, nil, err
	}
	if err := c.w.Flush(); err != nil {
		c.err = err
		return 0, nil, fmt.Errorf("server: flush: %w", err)
	}
	typ, reply, err := wire.ReadFrame(c.r)
	if err != nil {
		c.err = err
	}
	return typ, reply, err
}

// SendUpdates ships a batch of flow updates as the next sequenced batch of
// the client's replay session and waits for its ack. The first call opens
// the session with a MsgHello under a random nonzero session ID. There is
// no retransmission here (that is internal/export's job), so the session
// only gives each batch its (session, seq) identity.
func (c *Client) SendUpdates(updates []wire.Update) error {
	if c.session == 0 {
		if err := c.hello(); err != nil {
			return err
		}
	}
	c.seq++
	c.scratch = wire.AppendSeqUpdates(c.scratch[:0], c.seq, updates)
	typ, payload, err := c.roundTrip(wire.MsgSeqUpdates, c.scratch)
	if err != nil {
		return err
	}
	switch typ {
	case wire.MsgSeqAck:
		acked, err := wire.DecodeSeqAck(payload)
		if err != nil {
			return fmt.Errorf("server: seq ack: %w", err)
		}
		if acked != c.seq {
			return fmt.Errorf("server: ack for seq %d, want %d", acked, c.seq)
		}
		return nil
	case wire.MsgError:
		return fmt.Errorf("server: remote error: %s", payload)
	default:
		return fmt.Errorf("server: unexpected reply type %d", typ)
	}
}

// hello opens the client's replay session under a fresh random ID, drawn
// the way internal/export draws one. Sequences continue above the echoed
// horizon, so even an ID collision cannot make the server suppress a batch.
func (c *Client) hello() error {
	var id uint64
	for id == 0 {
		var b [8]byte
		if _, err := rand.Read(b[:]); err != nil {
			return fmt.Errorf("server: session id: %w", err)
		}
		id = binary.LittleEndian.Uint64(b[:])
	}
	typ, payload, err := c.roundTrip(wire.MsgHello, wire.AppendHello(nil, id))
	if err != nil {
		return err
	}
	switch typ {
	case wire.MsgHelloAck:
		last, err := wire.DecodeHelloAck(payload)
		if err != nil {
			return fmt.Errorf("server: hello ack: %w", err)
		}
		c.session, c.seq = id, last
		return nil
	case wire.MsgError:
		return fmt.Errorf("server: remote error: %s", payload)
	default:
		return fmt.Errorf("server: unexpected reply type %d", typ)
	}
}

// TopK queries the daemon's current top-k destinations.
func (c *Client) TopK(k int) ([]wire.TopKEntry, error) {
	typ, payload, err := c.roundTrip(wire.MsgTopKQuery, wire.AppendTopKQuery(nil, k))
	if err != nil {
		return nil, err
	}
	switch typ {
	case wire.MsgTopKReply:
		return wire.DecodeTopKReply(payload)
	case wire.MsgError:
		return nil, fmt.Errorf("server: remote error: %s", payload)
	default:
		return nil, fmt.Errorf("server: unexpected reply type %d", typ)
	}
}
