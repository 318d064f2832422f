"""A scripted query sequence, pinned to what the engine has always answered.

``EXPECTED`` was recorded from the engine *before* its serving core was
rewritten around one ``_answer`` (values, error codes and messages,
``cache_info()`` and the ``QueryServed`` stream, latency aside): hits,
misses, a ``fraction`` whose edges pre-warm ``cdf``, every validation
failure, an evicted version, a cold store, ``cache_size=0`` and an LRU
small enough to show the eviction order.  Regenerate (only on a
deliberate behaviour change) with::

    PYTHONPATH=src python -m tests.service.test_query_script
"""

from __future__ import annotations

import json
import math

from repro.obs import MemorySink, ObserverHub
from repro.service.protocol import QueryRequest
from repro.service.query import QueryEngine
from repro.service.store import EstimateStore

from tests.service.test_store import publish

NAN = math.nan


def script(observed: bool) -> dict[str, object]:
    """Run the whole script on fresh stores; returns everything observable."""
    sink = MemorySink()
    hub = ObserverHub([sink] if observed else ())
    replies: list[dict[str, object]] = []
    infos: dict[str, dict[str, int]] = {}

    def ask(engine: QueryEngine, *requests: QueryRequest) -> None:
        replies.extend(engine.execute(request).to_wire() for request in requests)

    store = EstimateStore(max_history=2)
    for offset in (0.0, 5.0, 10.0):  # versions 2 and 3 live, 1 evicted
        publish(store, offset=offset)
    main = QueryEngine(store, hub=hub)
    ask(
        main,
        QueryRequest.cdf(25.0),                       # miss
        QueryRequest.cdf(25.0, request_id=7),         # hit
        QueryRequest.quantile(0.5),                   # miss
        QueryRequest.quantile(0.5, request_id="q"),   # hit
        QueryRequest.fraction_between(22.0, 43.0),    # miss; warms cdf(22), cdf(43)
        QueryRequest.cdf(43.0),                       # hit on the warmed edge
        QueryRequest.fraction_between(22.0, 43.0),    # hit
        QueryRequest.fraction_between(25.0, 43.0),    # miss, both edges cached
        QueryRequest.fraction_between(30.0, math.inf),
        QueryRequest.network_size(),                  # miss
        QueryRequest.network_size(),                  # hit
        QueryRequest.cdf(-math.inf), QueryRequest.cdf(math.inf),
        QueryRequest.cdf(10.0), QueryRequest.cdf(50.0), QueryRequest.cdf(9.0),
        QueryRequest.quantile(0.0), QueryRequest.quantile(1.0),
        QueryRequest.quantile(0.25), QueryRequest.quantile(0.3),
        # every validation failure
        QueryRequest.cdf(NAN, request_id=8),
        QueryRequest.quantile(NAN), QueryRequest.quantile(1.5),
        QueryRequest.quantile(-0.1, version=2),
        QueryRequest.fraction_between(NAN, 1.0), QueryRequest.fraction_between(1.0, NAN),
        QueryRequest.fraction_between(5.0, 1.0),
        # versions: evicted, live-but-old (its own cache keys), unknown
        QueryRequest.cdf(25.0, version=1),
        QueryRequest.cdf(25.0, version=2), QueryRequest.cdf(25.0, version=2),
        QueryRequest.network_size(version=99),
        QueryRequest.status(request_id=9),            # a control op is not the engine's
    )
    infos["main"] = main.cache_info()

    ask(QueryEngine(EstimateStore(), hub=hub),        # cold store
        QueryRequest.cdf(1.0), QueryRequest.quantile(2.0), QueryRequest.network_size())

    uncached = QueryEngine(store, cache_size=0, hub=hub)
    ask(uncached, QueryRequest.cdf(25.0), QueryRequest.cdf(25.0),
        QueryRequest.fraction_between(22.0, 43.0), QueryRequest.cdf(22.0))
    infos["uncached"] = uncached.cache_info()

    sizeless = EstimateStore()
    publish(sizeless, size_estimate=None)
    ask(QueryEngine(sizeless, hub=hub), QueryRequest.network_size(), QueryRequest.cdf(15.0))

    # A 3-entry LRU: a fraction's edge *lookup* does not refresh an entry,
    # its edge *insert* does — the eviction order shows both.
    small = QueryEngine(store, cache_size=3, hub=hub)
    ask(small, QueryRequest.cdf(21.0), QueryRequest.cdf(22.0),
        QueryRequest.fraction_between(21.0, 23.0),    # reads cdf(21), inserts cdf(23) + itself
        QueryRequest.cdf(21.0), QueryRequest.cdf(22.0), QueryRequest.cdf(23.0),
        QueryRequest.fraction_between(21.0, 23.0))
    infos["small"] = small.cache_info()

    # The public methods share the path (and the counters).
    values = [main.cdf(25), main.quantile(0.5), main.fraction_between(22, 43),
              main.network_size(), main.cdf(26.5, version=3)]
    infos["main_after_methods"] = main.cache_info()

    metrics = hub.metrics.snapshot()
    return {
        "replies": replies,
        "values": values,
        "cache_info": infos,
        "events": [[e.op, e.version, e.cache_hit, e.ok, e.error] for e in sink.queries],
        "counters": metrics["counters"],
        "latency_count": metrics["histograms"]["query_latency_s"]["count"],
    }


EXPECTED = json.loads(r"""
{
 "replies": [
  {"ok": true, "value": 0.375},
  {"ok": true, "value": 0.375, "id": 7},
  {"ok": true, "value": 30.0},
  {"ok": true, "value": 30.0, "id": "q"},
  {"ok": true, "value": 0.5249999999999999},
  {"ok": true, "value": 0.825},
  {"ok": true, "value": 0.5249999999999999},
  {"ok": true, "value": 0.44999999999999996},
  {"ok": true, "value": 0.5},
  {"ok": true, "value": 100.0},
  {"ok": true, "value": 100.0},
  {"ok": true, "value": 0.0},
  {"ok": true, "value": 1.0},
  {"ok": true, "value": 0.0},
  {"ok": true, "value": 1.0},
  {"ok": true, "value": 0.0},
  {"ok": true, "value": 10.0},
  {"ok": true, "value": 50.0},
  {"ok": true, "value": 20.0},
  {"ok": true, "value": 22.0},
  {"ok": false, "error": "bad_request", "message": "x must not be NaN", "id": 8},
  {"ok": false, "error": "bad_request", "message": "q must not be NaN"},
  {"ok": false, "error": "bad_request", "message": "quantile level must lie in [0, 1], got 1.5"},
  {"ok": false, "error": "bad_request", "message": "quantile level must lie in [0, 1], got -0.1"},
  {"ok": false, "error": "bad_request", "message": "a must not be NaN"},
  {"ok": false, "error": "bad_request", "message": "b must not be NaN"},
  {"ok": false, "error": "bad_request", "message": "interval is empty: a=5.0 > b=1.0"},
  {"ok": false, "error": "unavailable", "message": "version 1 is not retained; available versions: [2, 3]"},
  {"ok": true, "value": 0.5, "version": 2},
  {"ok": true, "value": 0.5, "version": 2},
  {"ok": false, "error": "unavailable", "message": "version 99 is not retained; available versions: [2, 3]"},
  {"ok": false, "error": "bad_request", "message": "op 'status' is a control op; the engine does not serve it", "id": 9},
  {"ok": false, "error": "unavailable", "message": "no estimate published yet"},
  {"ok": false, "error": "bad_request", "message": "quantile level must lie in [0, 1], got 2.0"},
  {"ok": false, "error": "unavailable", "message": "no estimate published yet"},
  {"ok": true, "value": 0.375},
  {"ok": true, "value": 0.375},
  {"ok": true, "value": 0.5249999999999999},
  {"ok": true, "value": 0.3},
  {"ok": false, "error": "unavailable", "message": "snapshot v1 carries no size estimate"},
  {"ok": true, "value": 0.375},
  {"ok": true, "value": 0.275},
  {"ok": true, "value": 0.3},
  {"ok": true, "value": 0.04999999999999999},
  {"ok": true, "value": 0.275},
  {"ok": true, "value": 0.3},
  {"ok": true, "value": 0.325},
  {"ok": true, "value": 0.04999999999999999}
 ],
 "values": [0.375, 30.0, 0.5249999999999999, 100.0, 0.4125],
 "cache_info": {
  "main": {"hits": 7, "misses": 15, "size": 19, "max_size": 1024},
  "uncached": {"hits": 0, "misses": 4, "size": 0, "max_size": 0},
  "small": {"hits": 0, "misses": 7, "size": 3, "max_size": 3},
  "main_after_methods": {"hits": 11, "misses": 16, "size": 20, "max_size": 1024}
 },
 "events": [
  ["cdf", 3, false, true, null],
  ["cdf", 3, true, true, null],
  ["quantile", 3, false, true, null],
  ["quantile", 3, true, true, null],
  ["fraction", 3, false, true, null],
  ["cdf", 3, true, true, null],
  ["fraction", 3, true, true, null],
  ["fraction", 3, false, true, null],
  ["fraction", 3, false, true, null],
  ["size", 3, false, true, null],
  ["size", 3, true, true, null],
  ["cdf", 3, false, true, null],
  ["cdf", 3, true, true, null],
  ["cdf", 3, false, true, null],
  ["cdf", 3, false, true, null],
  ["cdf", 3, false, true, null],
  ["quantile", 3, false, true, null],
  ["quantile", 3, false, true, null],
  ["quantile", 3, false, true, null],
  ["quantile", 3, false, true, null],
  ["cdf", null, false, false, "bad_request"],
  ["quantile", null, false, false, "bad_request"],
  ["quantile", null, false, false, "bad_request"],
  ["quantile", null, false, false, "bad_request"],
  ["fraction", null, false, false, "bad_request"],
  ["fraction", null, false, false, "bad_request"],
  ["fraction", null, false, false, "bad_request"],
  ["cdf", 1, false, false, "unavailable"],
  ["cdf", 2, false, true, null],
  ["cdf", 2, true, true, null],
  ["size", 99, false, false, "unavailable"],
  ["cdf", null, false, false, "unavailable"],
  ["quantile", null, false, false, "bad_request"],
  ["size", null, false, false, "unavailable"],
  ["cdf", 3, false, true, null],
  ["cdf", 3, false, true, null],
  ["fraction", 3, false, true, null],
  ["cdf", 3, false, true, null],
  ["size", 1, false, false, "unavailable"],
  ["cdf", 1, false, true, null],
  ["cdf", 3, false, true, null],
  ["cdf", 3, false, true, null],
  ["fraction", 3, false, true, null],
  ["cdf", 3, false, true, null],
  ["cdf", 3, false, true, null],
  ["cdf", 3, false, true, null],
  ["fraction", 3, false, true, null],
  ["cdf", 3, true, true, null],
  ["quantile", 3, true, true, null],
  ["fraction", 3, true, true, null],
  ["size", 3, true, true, null],
  ["cdf", 3, false, true, null]
 ],
 "counters": {"queries_cdf_total": 24.0, "queries_fraction_total": 11.0, "queries_quantile_total": 11.0, "queries_size_total": 6.0, "queries_total": 52.0, "queries_unavailable_total": 5.0, "query_cache_hits_total": 11.0, "query_cache_misses_total": 41.0, "query_errors_total": 13.0},
 "latency_count": 52
}
""")


def test_scripted_sequence_answers_what_it_always_has():
    got = script(observed=True)
    for key in ("replies", "values", "cache_info", "events", "counters", "latency_count"):
        assert json.loads(json.dumps(got[key])) == EXPECTED[key], key
    # One record per query: the replies, plus the five method calls, minus
    # the control op the engine refuses without serving.
    assert len(got["events"]) == got["latency_count"] == len(got["replies"]) + 5 - 1


def test_counters_and_histogram_do_not_depend_on_an_observer():
    observed, plain = script(observed=True), script(observed=False)
    assert plain["events"] == []
    for key in ("replies", "values", "cache_info", "counters", "latency_count"):
        assert json.dumps(plain[key]) == json.dumps(observed[key]), key


if __name__ == "__main__":
    print(json.dumps(script(observed=True), indent=1))
