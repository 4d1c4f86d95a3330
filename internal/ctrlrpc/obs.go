package ctrlrpc

import (
	"nezha/internal/obs"
)

// EnableObs publishes the transport's attempt/retry/dedup/timeout
// counters into the registry and records retries and expiries into
// the flight recorder. Counters are snapshot-time funcs over the
// plain Stats fields (owned by the sim goroutine); the hot path only
// pays for recorder events on the rare retry/expiry edges.
func (t *Transport) EnableObs(o *obs.Obs) {
	if o == nil {
		return
	}
	t.ob = o
	r := o.Reg
	r.Help("ctrlrpc_attempts_total", "RPC send attempts, including retries.")
	r.Help("ctrlrpc_retries_total", "RPC attempts that were retransmissions.")
	r.Help("ctrlrpc_acked_total", "RPCs acknowledged by the target.")
	r.Help("ctrlrpc_nacked_total", "RPCs negatively acknowledged.")
	r.Help("ctrlrpc_timeouts_total", "RPCs that exhausted retries and expired.")
	r.Help("ctrlrpc_dup_acks_total", "Duplicate acknowledgements discarded.")
	r.Help("ctrlrpc_pending", "RPCs awaiting acknowledgement.")
	r.CounterVar("ctrlrpc_attempts_total", nil, &t.Stats.Sent)
	r.CounterVar("ctrlrpc_retries_total", nil, &t.Stats.Retries)
	r.CounterVar("ctrlrpc_acked_total", nil, &t.Stats.Acked)
	r.CounterVar("ctrlrpc_nacked_total", nil, &t.Stats.Nacked)
	r.CounterVar("ctrlrpc_timeouts_total", nil, &t.Stats.Expired)
	r.CounterVar("ctrlrpc_dup_acks_total", nil, &t.Stats.DupAcks)
	r.GaugeFunc("ctrlrpc_pending", nil, func() float64 { return float64(len(t.pending)) })
}
