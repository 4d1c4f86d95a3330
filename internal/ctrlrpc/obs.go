package ctrlrpc

import (
	"nezha/internal/obs"
)

// EnableObs publishes the transport's attempt/retry/dedup/timeout
// counters into the registry and records retries and expiries into
// the flight recorder. The counters are rows of transportTable, read
// from the plain Stats fields at snapshot time (on the sim goroutine,
// which owns them); the hot path only pays for recorder events on the
// rare retry/expiry edges.
func (t *Transport) EnableObs(o *obs.Obs) {
	if o == nil {
		return
	}
	t.ob = o
	obs.Register(o.Reg, t, nil, &transportTable)
}

var transportTable = obs.Table[Transport]{Series: []obs.Series[Transport]{
	{Name: "ctrlrpc_attempts_total", Help: "RPC send attempts, including retries.", Kind: obs.KindCounter,
		Value: func(t *Transport) float64 { return float64(t.Stats.Sent) }},
	{Name: "ctrlrpc_retries_total", Help: "RPC attempts that were retransmissions.", Kind: obs.KindCounter,
		Value: func(t *Transport) float64 { return float64(t.Stats.Retries) }},
	{Name: "ctrlrpc_acked_total", Help: "RPCs acknowledged by the target.", Kind: obs.KindCounter,
		Value: func(t *Transport) float64 { return float64(t.Stats.Acked) }},
	{Name: "ctrlrpc_nacked_total", Help: "RPCs negatively acknowledged.", Kind: obs.KindCounter,
		Value: func(t *Transport) float64 { return float64(t.Stats.Nacked) }},
	{Name: "ctrlrpc_timeouts_total", Help: "RPCs that exhausted retries and expired.", Kind: obs.KindCounter,
		Value: func(t *Transport) float64 { return float64(t.Stats.Expired) }},
	{Name: "ctrlrpc_dup_acks_total", Help: "Duplicate acknowledgements discarded.", Kind: obs.KindCounter,
		Value: func(t *Transport) float64 { return float64(t.Stats.DupAcks) }},
	{Name: "ctrlrpc_pending", Help: "RPCs awaiting acknowledgement.", Kind: obs.KindGauge,
		Value: func(t *Transport) float64 { return float64(len(t.pending)) }},
}}
