// Package atomicfield is the golden input for the atomicfield analyzer:
// every use of a sync/atomic package function is reported, whatever the
// import name and whether it is called or taken as a value; the typed
// atomics are not; and a suppression silences one reviewed line.
package atomicfield

import (
	"sync/atomic"
	sa "sync/atomic"
)

// counter keeps a plain word that the function forms update.
type counter struct {
	hits int64
}

func (c *counter) inc() { atomic.AddInt64(&c.hits, 1) } // want `sync/atomic.AddInt64 operates on a plain word`

func (c *counter) get() int64 {
	return atomic.LoadInt64(&c.hits) // want `sync/atomic.LoadInt64 operates on a plain word`
}

// flag is a package-level word stored through a renamed import.
var flag uint32

func raise() { sa.StoreUint32(&flag, 1) } // want `sync/atomic.StoreUint32 operates on a plain word`

// adder takes a package function as a value instead of calling it.
var adder = atomic.AddUint64 // want `sync/atomic.AddUint64 operates on a plain word`

// approx carries a reviewed suppression.
func (c *counter) approx() int64 {
	return atomic.LoadInt64(&c.hits) //lint:atomicok reviewed: the golden suppression case
}

// typed uses the typed atomics, which the compiler keeps atomic and the
// runtime keeps aligned: no finding.
type typed struct {
	flag bool
	n    atomic.Int64
	p    atomic.Pointer[counter]
}

func (t *typed) bump() int64 {
	t.p.Store(&counter{})
	return t.n.Add(1)
}

// AddInt64 is a local function that shares a sync/atomic name: no finding.
func AddInt64(p *int64, d int64) int64 { *p += d; return *p }

func local(c *counter) int64 { return AddInt64(&c.hits, 1) }
