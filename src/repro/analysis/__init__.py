"""Result analysis: statistics and table rendering for the harness."""
