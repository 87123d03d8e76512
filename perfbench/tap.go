package main

import (
	"encoding/binary"
	"encoding/json"
	"net"
	"sync"
	"time"

	"communix/internal/wire"
)

// frame is the part of a wire request or response the taps look at.
type frame struct {
	Type    wire.MsgType      `json:"type"`
	ID      uint64            `json:"id"`
	Status  wire.Status       `json:"status"`
	Next    int               `json:"next"`
	Cursor  int               `json:"cursor"`
	Sig     json.RawMessage   `json:"sig"`
	Sigs    []json.RawMessage `json:"sigs"`
	Entries []json.RawMessage `json:"entries"`
}

// tapConn is a net.Conn, handed to the program through a Dial or
// FollowDial hook, that passes every complete length-prefixed frame it
// reads or writes to a callback, stamped with the time the bytes crossed
// the connection. It observes the program from outside: nothing inside
// the program is instrumented.
type tapConn struct {
	net.Conn
	onRead, onWrite func(f frame, at time.Time)

	rbuf []byte // read side: one reader goroutine
	wmu  sync.Mutex
	wbuf []byte
}

func (c *tapConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 && c.onRead != nil {
		c.rbuf = feed(c.rbuf, p[:n], time.Now(), c.onRead)
	}
	return n, err
}

func (c *tapConn) Write(p []byte) (int, error) {
	if c.onWrite != nil {
		c.wmu.Lock()
		c.wbuf = feed(c.wbuf, p, time.Now(), c.onWrite)
		c.wmu.Unlock()
	}
	return c.Conn.Write(p)
}

// feed appends p to the partial-frame buffer and hands each completed
// frame to fn.
func feed(buf, p []byte, at time.Time, fn func(frame, time.Time)) []byte {
	buf = append(buf, p...)
	for len(buf) >= 4 {
		n := int(binary.BigEndian.Uint32(buf))
		if len(buf) < 4+n {
			break
		}
		var f frame
		if json.Unmarshal(buf[4:4+n], &f) == nil {
			fn(f, at)
		}
		buf = buf[4+n:]
	}
	return append([]byte(nil), buf...)
}

// tapDial wraps a TCP dial to addr in a tapConn.
func tapDial(addr string, onRead, onWrite func(frame, time.Time)) func() (net.Conn, error) {
	return func() (net.Conn, error) {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		if onRead == nil && onWrite == nil {
			return c, nil
		}
		return &tapConn{Conn: c, onRead: onRead, onWrite: onWrite}, nil
	}
}
