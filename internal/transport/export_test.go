package transport

import "ocsml/internal/trace"

// checkLoggedSends is the chaos runner's logged-sends check, over a trace.
var checkLoggedSends = trace.CheckLoggedSends
