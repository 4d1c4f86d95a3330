package lib

// Config holds one field of each kind the knob gate tells apart.
type Config struct {
	Planted     int  // set only by its own fill
	Guarded     int  // set only under a zero guard outside fill
	Passed      int  // set only by a pass-through
	TestOnly    int  // set only by a test
	NegativeCtl bool // set by nobody; allow-listed by the control test
	FromCmd     int  // set in a cmd/ literal
	FromFlag    int  // set through a pointer to it in cmd/
	FromExample int  // set in an examples/ literal
	FromBench   int  // set in a bench/ literal
	Assigned    int  // set by an assignment in internal/
	Renamed     int  // set from a differently named field
	internal    int  // unexported: not a knob
}

// Options is a config struct too.
type Options struct {
	Defaulted int    // set only by DefaultOptions
	Nested    Config // set by Mirror
}

// Spec is a config struct too.
type Spec struct {
	Sized int  // set in a cmd/ literal
	Read  bool // only read, never set
}

// Use reads s.
func Use(s Spec) bool { return s.Sized > 0 && s.Read }

// Settings is no config struct, though it shares a field name.
type Settings struct{ Field, Planted int }

type hiddenConfig struct{ Field int }

// DefaultOptions is defaulting code.
func DefaultOptions() Options { return Options{Defaulted: 3} }

func (c *Config) fill() {
	if c.Planted == 0 {
		c.Planted = 1
	}
	c.internal = 1
}

// New normalizes c.
func New(c Config) *Config {
	c.fill()
	if c.Guarded <= 0 {
		c.Guarded = 2
	}
	c.Assigned = 5
	return &c
}

// Mirror copies c into a fresh config.
func Mirror(c Config) Options {
	return Options{Nested: Config{Passed: c.Passed, Renamed: c.FromCmd}}
}

var _ = hiddenConfig{Field: 1}
