package ip

import (
	"repro/internal/bus"
	"repro/internal/core"
)

// AlertPort register offsets (word registers, from the slave base).
const (
	AlertRegCount = 0x00 // read-only: queued alerts
	AlertRegKind  = 0x04 // read: violation class of the head alert (0 when empty)
	AlertRegAddr  = 0x08 // read: offending address of the head alert
	AlertRegMeta  = 0x0C // read: packed op|size|thread of the head alert
	AlertRegPop   = 0x10 // write 1: drop the head alert
	alertRegSpan  = 0x20
)

// AlertQueueDepth bounds the hardware alert FIFO; older alerts are dropped
// (and counted) when software lags.
const AlertQueueDepth = 32

// AlertPort makes the firewalls' alert stream visible to on-chip software:
// it subscribes to the platform AlertLog and exposes a small FIFO of
// pending alerts as bus-mapped registers, so a security manager task can
// poll, classify and react (§III-C: "the system must react as fast as
// possible"). Its own register file should sit behind a slave firewall
// restricted to the manager core.
type AlertPort struct {
	name string
	base uint32
	fifo []core.Alert

	// IRQ, when non-nil, is pulsed on every enqueued alert — wire it to
	// the security-manager core's interrupt line so reaction latency is
	// bounded by interrupt entry rather than a polling interval.
	IRQ func()

	// Delivered counts alerts enqueued; Dropped counts overruns.
	Delivered, Dropped uint64
}

// NewAlertPort creates the port and subscribes it to log.
func NewAlertPort(name string, base uint32, log *core.AlertLog) *AlertPort {
	p := &AlertPort{name: name, base: base}
	log.Subscribe(func(a *core.Alert) {
		if len(p.fifo) >= AlertQueueDepth {
			p.Dropped++
			return
		}
		p.fifo = append(p.fifo, *a)
		p.Delivered++
		if p.IRQ != nil {
			p.IRQ()
		}
	})
	return p
}

// Name implements bus.Slave.
func (p *AlertPort) Name() string { return p.name }

// Base implements bus.Slave.
func (p *AlertPort) Base() uint32 { return p.base }

// Size implements bus.Slave.
func (p *AlertPort) Size() uint32 { return alertRegSpan }

// Pending returns the number of queued alerts.
func (p *AlertPort) Pending() int { return len(p.fifo) }

// packMeta encodes head-alert metadata for software: op in bit 0, size in
// bits 8..15, thread in bits 16..31.
func packMeta(a core.Alert) uint32 {
	v := uint32(a.Size)<<8 | a.Thread<<16
	if a.Op == bus.Write {
		v |= 1
	}
	return v
}

// Access implements bus.Slave (1 wait state, word access only).
func (p *AlertPort) Access(now uint64, tx *bus.Transaction) (uint64, bus.Resp) {
	if tx.Size != 4 || tx.Burst != 1 {
		return 1, bus.RespSlaveErr
	}
	off := tx.Addr - p.base
	if tx.Op == bus.Read {
		var head *core.Alert
		if len(p.fifo) > 0 {
			head = &p.fifo[0]
		}
		switch off {
		case AlertRegCount:
			tx.Data[0] = uint32(len(p.fifo))
		case AlertRegKind:
			if head != nil {
				tx.Data[0] = uint32(head.Violation)
			} else {
				tx.Data[0] = 0
			}
		case AlertRegAddr:
			if head != nil {
				tx.Data[0] = head.Addr
			} else {
				tx.Data[0] = 0
			}
		case AlertRegMeta:
			if head != nil {
				tx.Data[0] = packMeta(*head)
			} else {
				tx.Data[0] = 0
			}
		default:
			return 1, bus.RespSlaveErr
		}
		return 1, bus.RespOK
	}
	if off == AlertRegPop {
		if tx.Data[0]&1 != 0 && len(p.fifo) > 0 {
			p.fifo = p.fifo[1:]
		}
		return 1, bus.RespOK
	}
	return 1, bus.RespSlaveErr
}
