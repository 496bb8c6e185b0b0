"""CONSTRUCT pages are byte-identical at every degree of parallelism.

The harvester never sees how the remote service partitions its data, so
pages fetched from an in-process endpoint must match byte-for-byte
whether the remote engines split the graph into 1, 2, or 4 partitions
-- otherwise a harvest could stitch together partitioning-flavored
pages and the differential validation property would be vacuous.
"""

from repro.federation import Subgraph
from repro.federation.endpoint import pair_endpoint
from repro.server.protocol import canonical_json
from repro.server.service import QueryRequest, QueryService

LUBM = "http://repro.example.org/lubm#"
HARVEST = (
    "CONSTRUCT { ?s <%(l)sadvisor> ?o } WHERE { ?s <%(l)sadvisor> ?o }"
    % {"l": LUBM}
)
WORKERS = (1, 2, 4)


def _page_bytes(service) -> list:
    pages = []
    for offset in (0, 4, 8):
        outcome = service.submit(
            QueryRequest(
                text="%s LIMIT 4 OFFSET %d" % (HARVEST, offset),
                tenant="t",
                id="page@%d" % offset,
            )
        )
        assert outcome.status == "ok"
        pages.append(outcome.payload)
    return pages


class TestBackendIdentity:
    def test_pages_identical_across_worker_counts(self, lubm_graph):
        baseline = _page_bytes(QueryService(lubm_graph.copy()))
        assert all('"triples":["<' in page for page in baseline)
        for workers in WORKERS:
            pages = _page_bytes(
                QueryService(lubm_graph.copy(), parallelism=workers)
            )
            assert pages == baseline, "parallelism=%d diverged" % workers

    def test_harvest_identical_across_backends(self, lubm_graph):
        def harvested(**service_kwargs):
            endpoint = pair_endpoint(lubm_graph.copy(), **service_kwargs)
            subgraph = Subgraph(endpoint, page_size=5)
            subgraph.harvest(HARVEST)
            return canonical_json(subgraph.query(HARVEST))

        baseline = harvested()
        assert harvested(parallelism=2) == baseline
