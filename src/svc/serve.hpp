#pragma once
// The line protocol both front-ends speak (docs/service.md §2): `deepsimd`
// over stdin/stdout or a Unix socket, `deepsim --serve` over stdin/stdout.

#include <iosfwd>

#include "svc/service.hpp"

namespace deep::svc {

/// One protocol conversation: reads requests from `in` until EOF or a quit
/// op, pipelines them through the service, writes responses to `out` in
/// submission order.  Returns false when a quit op asked the caller to stop
/// for good.
bool serve_stream(Service& service, std::istream& in, std::ostream& out);

}  // namespace deep::svc
