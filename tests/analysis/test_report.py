from repro import obs
from repro.analysis.report import full_report


class TestFullReport:
    def test_contains_every_artifact(self, smoke_result):
        text = full_report(smoke_result)
        for anchor in ("Table 1", "Table 2", "Table 3", "Figure 2",
                       "Figure 5", "Figure 7", "Figure 10", "Figure 12",
                       "Section 5.2", "Section 5.3"):
            assert anchor in text, f"missing {anchor}"

    def test_degrades_gracefully_without_data(self, smoke_result):
        # The smoke scenario is tiny; sections short on data must note
        # it rather than raise.
        text = full_report(smoke_result)
        assert "REPRODUCTION REPORT" in text

    def test_evolution_section_with_two_results(self, smoke_result):
        text = full_report(smoke_result, earlier_era_result=smoke_result)
        assert "evolution" in text

    def test_header_metrics_share_the_dataset_cache(self, smoke_result):
        """The headline metrics read ``decoy_access_deltas`` off the
        report's shared context, so the whole report — header included —
        stays within the standing budget of 30 log-store scans (29 on
        smoke seed 7; 39 when the header re-queried every decoy)."""
        with obs.recording() as recorder:
            full_report(smoke_result)
        scans = sum(value for key, value in recorder.counters.items()
                    if key.startswith("logstore.query."))
        assert scans <= 30
        assert recorder.counters["analysis.dataset.build.decoy_access_deltas"] == 1
