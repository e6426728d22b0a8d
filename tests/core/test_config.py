"""TFMAE configuration tests: validation, presets, overrides."""

from __future__ import annotations

import pytest

from repro.core import PAPER_PRESETS, TFMAEConfig, preset_for


class TestValidation:
    def test_defaults_match_paper(self):
        config = TFMAEConfig()
        assert config.window_size == 100
        assert config.d_model == 128
        assert config.num_layers == 3
        assert config.learning_rate == 1e-4
        assert config.epochs == 1
        assert config.batch_size == 64
        assert config.cov_window == 10

    def test_rejects_tiny_window(self):
        with pytest.raises(ValueError):
            TFMAEConfig(window_size=1)

    def test_rejects_out_of_range_ratios(self):
        with pytest.raises(ValueError):
            TFMAEConfig(temporal_mask_ratio=101.0)
        with pytest.raises(ValueError):
            TFMAEConfig(frequency_mask_ratio=-5.0)

    def test_rejects_removing_both_branches(self):
        with pytest.raises(ValueError):
            TFMAEConfig(use_temporal_branch=False, use_frequency_branch=False)

    def test_rejects_out_of_range_dropout(self):
        for dropout in (-0.2, 1.0, 1.5):
            with pytest.raises(ValueError, match="dropout"):
                TFMAEConfig(dropout=dropout)
        assert TFMAEConfig(dropout=0.0).dropout == 0.0
        assert TFMAEConfig(dropout=0.5).dropout == 0.5

    def test_rejects_indivisible_heads(self):
        with pytest.raises(ValueError):
            TFMAEConfig(d_model=100, num_heads=3)

    def test_with_overrides_returns_new_instance(self):
        base = TFMAEConfig()
        changed = base.with_overrides(d_model=64, num_heads=4)
        assert changed.d_model == 64
        assert base.d_model == 128

    def test_frozen(self):
        with pytest.raises(Exception):
            TFMAEConfig().d_model = 7  # type: ignore[misc]


class TestPresets:
    def test_every_paper_dataset_has_a_preset(self):
        for name in ("SWaT", "SMD", "SMAP", "PSM", "MSL"):
            assert name in PAPER_PRESETS

    def test_fig6_ratios(self):
        # Optimal masking ratios reported in the paper (Section V-E).
        assert PAPER_PRESETS["SWaT"]["temporal_mask_ratio"] == 25.0
        assert PAPER_PRESETS["SMD"]["temporal_mask_ratio"] == 5.0
        assert PAPER_PRESETS["SMAP"]["temporal_mask_ratio"] == 65.0
        assert PAPER_PRESETS["PSM"]["frequency_mask_ratio"] == 10.0
        assert PAPER_PRESETS["MSL"]["frequency_mask_ratio"] == 40.0

    def test_threshold_ratios(self):
        # Section V-A.4: r = 0.9 (MSL, PSM), 0.75 (SMAP), 0.45 (SMD), 0.3 (SWaT).
        assert PAPER_PRESETS["MSL"]["anomaly_ratio"] == 0.9
        assert PAPER_PRESETS["PSM"]["anomaly_ratio"] == 0.9
        assert PAPER_PRESETS["SMAP"]["anomaly_ratio"] == 0.75
        assert PAPER_PRESETS["SMD"]["anomaly_ratio"] == 0.45
        assert PAPER_PRESETS["SWaT"]["anomaly_ratio"] == 0.3

    def test_preset_for_applies_values(self):
        config = preset_for("SWaT")
        assert config.temporal_mask_ratio == 25.0
        assert config.anomaly_ratio == 0.3

    def test_preset_for_unknown_dataset_uses_defaults(self):
        config = preset_for("MyCustomDataset")
        assert config == TFMAEConfig()

    def test_preset_for_overrides_win(self):
        config = preset_for("SWaT", temporal_mask_ratio=10.0)
        assert config.temporal_mask_ratio == 10.0
        assert config.anomaly_ratio == 0.3

    def test_preset_for_respects_base(self):
        base = TFMAEConfig(d_model=32, num_heads=4)
        config = preset_for("SMD", base=base)
        assert config.d_model == 32
        assert config.temporal_mask_ratio == 5.0
