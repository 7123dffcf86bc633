"""HTTP-layer metrics of the front end, whichever executor is behind it.

This module owns the per-route request counter and latency histogram plus the
route-label normalization (``/documents/<id>`` collapses to
``/documents/{id}``, anything unknown to ``other``) so unbounded ids never
explode the label space.
"""

from __future__ import annotations

from ..observability.metrics import REGISTRY

#: The Prometheus text exposition content type (version 0.0.4).
METRICS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Routes served by the front end (label values; see :func:`normalize_route`).
KNOWN_ROUTES = ("/healthz", "/stats", "/metrics", "/documents", "/query", "/batch", "/profile")

HTTP_REQUESTS = REGISTRY.counter(
    "cqtrees_http_requests_total",
    "HTTP requests served, by route, method and status code.",
    ("route", "method", "code"),
)
HTTP_SECONDS = REGISTRY.histogram(
    "cqtrees_http_request_seconds",
    "HTTP request latency in seconds, by route.",
    ("route",),
)


def normalize_route(path: str) -> str:
    """Collapse a request path to a bounded route label."""
    if path in KNOWN_ROUTES:
        return path
    if path.startswith("/documents/"):
        return "/documents/{id}"
    return "other"


def observe_http(path: str, method: str, code: int, seconds: float) -> None:
    """Record one served HTTP request (the route table calls this)."""
    route = normalize_route(path)
    HTTP_REQUESTS.inc(route=route, method=method, code=str(code))
    HTTP_SECONDS.observe(seconds, route=route)


def route_latency_summary() -> dict:
    """Interpolated p50/p99 per route, for the ``/stats`` payload.

    Derived from the same fixed-bucket histogram ``/metrics`` exposes, so an
    operator reading ``/stats`` and a dashboard reading ``/metrics`` agree to
    within one bucket width.  Front-end latency lives in the parent process in
    both serve modes, so no shard merge is needed here.
    """
    summary = {}
    for (route,) in HTTP_SECONDS.label_sets():
        count, _ = HTTP_SECONDS.totals(route=route)
        if not count:
            continue
        p50 = HTTP_SECONDS.percentile(0.5, route=route)
        p99 = HTTP_SECONDS.percentile(0.99, route=route)
        summary[route] = {
            "count": count,
            "p50_ms": round(p50 * 1000.0, 3),
            "p99_ms": round(p99 * 1000.0, 3),
        }
    return summary
