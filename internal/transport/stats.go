package transport

import "sync/atomic"

// Stats is a point-in-time snapshot of the TCP data path's cumulative
// counters. All fields are totals since the transport started; the
// snapshot is internally consistent enough for monitoring (fields are
// read atomically, not under one lock).
type Stats struct {
	// FramesSent / BytesSent count frames (and their bytes, length prefix
	// included) actually written to sockets.
	FramesSent int64 `json:"frames_sent"`
	BytesSent  int64 `json:"bytes_sent"`
	// FramesReceived / BytesReceived count inbound frames that decoded
	// cleanly and were handed to the handler.
	FramesReceived int64 `json:"frames_received"`
	BytesReceived  int64 `json:"bytes_received"`
	// FramesRejected counts inbound frames that were oversized or failed
	// to decode (an unknown format-version byte included); each one
	// closes the connection it arrived on.
	FramesRejected int64 `json:"frames_rejected"`
	// Dials counts outbound connection attempts; DialErrors the failures.
	Dials      int64 `json:"dials"`
	DialErrors int64 `json:"dial_errors"`
	// StaleRetries counts flushes that failed on a cached connection and
	// were retried on a fresh dial.
	StaleRetries int64 `json:"stale_retries"`
	// QueueFullDrops counts frames dropped because a peer's bounded
	// outbound queue was full — the fire-and-forget backpressure policy.
	QueueFullDrops int64 `json:"queue_full_drops"`
	// ConnDrops counts frames dropped because the peer's connection died
	// (flush failure after the stale retry, or Close with frames queued).
	ConnDrops int64 `json:"conn_drops"`
	// QueueHighWater is the deepest any peer's outbound queue has been,
	// in frames.
	QueueHighWater int64 `json:"queue_high_water"`
	// FlushBatches counts writev flushes; FramesSent/FlushBatches is the
	// mean batch size (the full distribution is the
	// transport_flush_batch_frames histogram).
	FlushBatches int64 `json:"flush_batches"`
}

// tcpStats holds the live atomics behind Stats.
type tcpStats struct {
	framesSent     atomic.Int64
	bytesSent      atomic.Int64
	framesReceived atomic.Int64
	bytesReceived  atomic.Int64
	framesRejected atomic.Int64
	dials          atomic.Int64
	dialErrors     atomic.Int64
	staleRetries   atomic.Int64
	queueFullDrops atomic.Int64
	connDrops      atomic.Int64
	queueHighWater atomic.Int64
	flushBatches   atomic.Int64
}

// observeQueueDepth raises the high-water mark to depth if deeper.
func (s *tcpStats) observeQueueDepth(depth int) {
	d := int64(depth)
	for {
		cur := s.queueHighWater.Load()
		if d <= cur || s.queueHighWater.CompareAndSwap(cur, d) {
			return
		}
	}
}

func (s *tcpStats) snapshot() Stats {
	return Stats{
		FramesSent:     s.framesSent.Load(),
		BytesSent:      s.bytesSent.Load(),
		FramesReceived: s.framesReceived.Load(),
		BytesReceived:  s.bytesReceived.Load(),
		FramesRejected: s.framesRejected.Load(),
		Dials:          s.dials.Load(),
		DialErrors:     s.dialErrors.Load(),
		StaleRetries:   s.staleRetries.Load(),
		QueueFullDrops: s.queueFullDrops.Load(),
		ConnDrops:      s.connDrops.Load(),
		QueueHighWater: s.queueHighWater.Load(),
		FlushBatches:   s.flushBatches.Load(),
	}
}
