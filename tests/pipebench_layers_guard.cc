// Compile-only: pipebench's forwarding proxies override the protocol
// interfaces' virtuals, so breaking one of those overrides fails here too.
#include "../pipebench/layers.h"
