#!/usr/bin/env sh
# Fails if an aborting CHECK macro appears in a request-reachable translation
# unit of the serving stack. Every status a deserialized ServiceRequest can
# provoke must propagate as Status/Result and surface as a typed wire error
# (INVALID_REQUEST / INTERNAL_ERROR) — a CHECK here turns one poisoned
# request into a fleet-wide abort.
#
# DCHECK (debug-only, internal-invariant) is allowed: the pattern requires
# the character before CHECK to not be part of a longer identifier.
#
# Usage: tools/lint_check_free.sh  (from the repository root)
set -eu

PATTERN='(^|[^A-Z_])CHECK(_[A-Z]+)?\('

# The request-reachable surface: everything a deserialized ServiceRequest
# flows through, from parse to response. Extend this list when new TUs join
# the request path.
FILES="
src/service/service_engine.cc
src/service/service_engine.h
src/service/protocol.cc
src/service/protocol.h
src/service/artifact_store.cc
src/service/artifact_store.h
src/service/service_client.cc
src/service/service_client.h
src/core/pipeline.cc
src/core/pipeline.h
src/search/search_driver.cc
src/search/search_driver.h
src/search/searchers.cc
src/search/searchers.h
src/dlf/train_config.cc
src/dlf/train_config.h
src/dlf/model_config.cc
src/dlf/model_config.h
src/common/fault_injection.cc
src/common/fault_injection.h
src/common/telemetry.cc
src/common/telemetry.h
src/service/metrics_exporter.cc
src/service/metrics_exporter.h
src/service/bundle_merge.cc
src/service/bundle_merge.h
src/net/frame_decoder.cc
src/net/frame_decoder.h
src/net/tcp_server.cc
src/net/tcp_server.h
src/net/tcp_client.cc
src/net/tcp_client.h
src/service/fleet_journal.cc
src/service/fleet_journal.h
src/common/cancellation.h
src/common/json_fields.h
"

status=0
for file in $FILES; do
  if [ ! -f "$file" ]; then
    echo "lint_check_free: missing file $file (update the list?)" >&2
    status=1
    continue
  fi
  if grep -nE "$PATTERN" "$file"; then
    echo "lint_check_free: $file: CHECK aborts the whole server on a bad" >&2
    echo "  request. Return a Status/Result instead (or DCHECK a genuine" >&2
    echo "  internal invariant)." >&2
    status=1
  fi
done

if [ "$status" -eq 0 ]; then
  echo "lint_check_free: OK — no aborting CHECK in request-reachable TUs"
fi
exit "$status"
