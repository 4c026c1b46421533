package server

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"time"

	"dcsketch/internal/wire"
)

// Client is a query connection to the monitor daemon: it issues top-k
// queries. Flow updates reach the daemon through internal/export, the one
// sender of the hello and sequenced-batch protocol. A Client is not safe for
// concurrent use.
//
// A Client is poisoned by its first transport error: any mid-frame write or
// read failure leaves the byte stream desynchronized (the peer may hold a
// partial frame, or an unread reply is in flight), so every later call
// fails fast with the original error instead of silently corrupting the
// framing. In-band MsgError replies arrive on an intact stream and do not
// poison. There is no reconnection here.
type Client struct {
	conn    net.Conn
	r       *bufio.Reader
	w       *bufio.Writer
	timeout time.Duration
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
