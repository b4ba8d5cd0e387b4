"""Architecture-specific path resolution (Sec. V-D)."""

import pytest

from repro.core.arch_support import resolve_version, validate_config, validate_version
from repro.core.config import BitDecodingConfig
from repro.gpu.arch import get_arch


class TestResolveVersion:
    def test_auto_picks_best_path(self):
        assert resolve_version(get_arch("a100")) == "v2"
        assert resolve_version(get_arch("rtx4090")) == "v2"
        assert resolve_version(get_arch("h100")) == "v3"
        assert resolve_version(get_arch("rtx5090")) == "fp4"
        assert resolve_version(get_arch("rtx_pro_6000")) == "fp4"

    def test_explicit_request_honored(self):
        """A device may run an older path than its best one."""
        validate_config(get_arch("h100"), BitDecodingConfig(version="v2"))
        validate_config(get_arch("rtx5090"), BitDecodingConfig(version="v2"))

    def test_v3_rejected_pre_hopper(self):
        with pytest.raises(ValueError, match="wgmma"):
            validate_version(get_arch("a100"), "v3")

    def test_fp4_rejected_pre_blackwell(self):
        with pytest.raises(ValueError, match="FP4"):
            validate_version(get_arch("h100"), "fp4")

    def test_unknown_version_rejected(self):
        with pytest.raises(ValueError):
            validate_version(get_arch("a100"), "v9")


class TestValidateConfig:
    def test_valid_config_passes(self):
        validate_config(get_arch("h100"), BitDecodingConfig(version="v3"))

    def test_mismatched_config_rejected(self):
        with pytest.raises(ValueError):
            validate_config(get_arch("rtx4090"), BitDecodingConfig(version="v3"))
