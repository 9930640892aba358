"""The benchmark's metrics: names, units, direction and bounds.

BENCHMARK.json at the repository root repeats these tables;
selftest.py checks that the two agree.
"""

# (name, unit, better, bound): bound is the share of the parent's median
# by which the metric may worsen before a change counts as a regression
# Timings get the widest bound: on the shared two-core reference machine
# the same worker's wall time moves by ±5%, and by up to 20% for a
# minute at a time.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("build_s", "s", "lower", 0.25),
    ("query_p50_ms", "ms", "lower", 0.25),
    ("query_p99_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
)

SUITES = (
    "fcalculus", "cylinder", "mexo", "mq", "mpart", "cantor",
    "e12", "closures", "fpc", "lamplighter", "characters", "properties",
)

# (name, unit, better, tracer key when it differs from the name)
PER_LAYER = tuple(
    [(f"zoo.{s}_s", "s", "lower", None) for s in SUITES]
    + [
        ("zoo.build_mexo_s", "s", "lower", None),
        ("zoo.build_mq_s", "s", "lower", None),
        ("zoo.build_mpart_s", "s", "lower", None),
        ("zoo.self_s", "s", "lower", None),
        ("expectation.self_s", "s", "lower", None),
        ("expectation.first_project_s", "s", "lower", None),
        ("expectation.gs_basis", "count", "lower", None),
        ("expectation.gs_rank", "count", "lower", None),
        ("expectation.gs_useful_ratio", "ratio", "higher", None),
        ("expectation.project_calls", "count", "lower", "expectation.SubalgebraSpec.project_calls"),
        ("expectation.project_s", "s", "lower", "expectation.SubalgebraSpec.project_s"),
        ("expectation.expect_unit_calls", "count", "lower", "expectation.SubalgebraSpec.expect_unit_calls"),
        ("expectation.expect_unit_hit_ratio", "ratio", "higher", None),
        ("expectation.verify_closure_s", "s", "lower", None),
        ("expectation.verify_invariance_s", "s", "lower", None),
        ("expectation.check_E_properties_s", "s", "lower", None),
        ("algebra.self_s", "s", "lower", None),
        ("algebra.convolve_calls", "count", "lower", None),
        ("algebra.convolve_pairs", "count", "lower", None),
        ("algebra.convolve_s", "s", "lower", None),
        ("algebra.inner_product_calls", "count", "lower", None),
        ("algebra.inner_product_s", "s", "lower", None),
        ("groups.self_s", "s", "lower", None),
        ("groups.multiply_calls", "count", "lower", None),
        ("groups.cantor_multiply_calls", "count", "lower", None),
        ("groups.inverse_calls", "count", "lower", None),
        ("groups.orbit_under_s", "s", "lower", None),
        ("groups.normal_closure_s", "s", "lower", None),
        ("groups.enumerate_group_s", "s", "lower", None),
        ("groups.bfs_elements", "count", "lower", None),
        ("groups.mat_inverse_cache_hit_ratio", "ratio", "higher", None),
        ("f2.self_s", "s", "lower", None),
        ("f2.transvection_factorize_calls", "count", "lower", None),
        ("f2.first_factorize_s", "s", "lower", None),
        ("f2.transvection_factorize_s", "s", "lower", None),
        ("f2.mat_mul_calls", "count", "lower", None),
        ("f2.mat_inverse_calls", "count", "lower", None),
        ("f2.range_subgroup_s", "s", "lower", None),
        ("projections.self_s", "s", "lower", None),
        ("projections.make_f_calls", "count", "lower", None),
        ("projections.make_q_power_calls", "count", "lower", None),
        ("projections.make_part_generator_calls", "count", "lower", None),
        ("characters.self_s", "s", "lower", None),
        ("characters.evaluate_calls", "count", "lower", None),
        ("characters.is_positive_definite_s", "s", "lower", None),
        ("characters.is_central_s", "s", "lower", None),
        ("serialize.self_s", "s", "lower", None),
        ("serialize.encode_algebra_calls", "count", "lower", None),
        ("cli.self_s", "s", "lower", None),
        ("cli.report_bytes", "bytes", "lower", None),
        ("trace.overhead_ratio", "ratio", "lower", None),
    ]
)
