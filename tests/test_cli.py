"""Tests for the pcnn-repro command-line interface."""

import pytest

from repro.cli import main
from repro.core import DeploymentBundle


class TestCLI:
    def test_report(self, capsys):
        assert main(["report", "--model", "patternnet", "--n", "2"]) == 0
        out = capsys.readouterr().out
        assert "Compr (weight)" in out
        assert "4.5x" in out

    def test_report_layers_string(self, capsys):
        assert main(["report", "--model", "patternnet", "--layers", "2-1-1"]) == 0
        out = capsys.readouterr().out
        assert "n=2-1-1" in out

    def test_sweep(self, capsys):
        assert main(["sweep", "--model", "patternnet"]) == 0
        out = capsys.readouterr().out
        assert "n = 4" in out and "n = 1" in out

    def test_speedup(self, capsys):
        assert main(["speedup", "--model", "patternnet", "--n", "1"]) == 0
        out = capsys.readouterr().out
        assert "9.00x" in out
        assert "TOPS/W" in out

    def test_prune_writes_bundle(self, tmp_path, capsys):
        out_path = str(tmp_path / "bundle.npz")
        assert main(
            ["prune", "--model", "patternnet", "--n", "2", "--out", out_path,
             "--quantize", "8"]
        ) == 0
        bundle = DeploymentBundle.load(out_path)
        assert len(bundle.layers) == 3
        assert all(layer.quantized for layer in bundle.layers.values())
        assert "bundle written" in capsys.readouterr().out

    def test_predict_dense(self, capsys):
        assert main(["predict", "--model", "patternnet", "--batch", "4",
                     "--micro-batch", "2", "--repeat", "1"]) == 0
        out = capsys.readouterr().out
        assert "runtime.predict" in out
        assert "output shape: (4, 10)" in out
        assert "hits" in out

    def test_predict_pruned(self, capsys):
        """Pruned models carry SPM encodings, so the eager model executes
        straight from sparse storage."""
        assert main(["predict", "--model", "patternnet", "--n", "2",
                     "--batch", "2", "--repeat", "1"]) == 0
        out = capsys.readouterr().out
        assert "n=2-2-2" in out
        assert "output shape: (2, 10)" in out

    def test_predict_bad_args_exit_cleanly(self, capsys):
        assert main(["predict", "--model", "patternnet", "--batch", "2",
                     "--repeat", "0"]) == 2
        assert main(["predict", "--model", "patternnet", "--batch", "2",
                     "--repeat", "1", "--micro-batch", "0"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err

    def test_serve_builds_warm_server(self, tmp_path):
        """The serve subcommand's builder stands up a warm, batched
        server (the blocking accept loop itself is exercised in
        tests/serving/test_http.py)."""
        import json
        import urllib.request

        import numpy as np

        from repro.cli import build_model_server, build_parser
        from repro.serving import ServingHTTPServer

        bundle_path = str(tmp_path / "bundle.npz")
        assert main(["prune", "--model", "patternnet", "--n", "2",
                     "--patterns", "4", "--out", bundle_path]) == 0
        args = build_parser().parse_args(
            ["serve", "--model", "patternnet", "--bundle", bundle_path,
             "--max-batch", "4", "--max-latency-ms", "5", "--port", "0"]
        )
        server, served = build_model_server(args)
        assert served.source == "bundle"
        assert served.compiled is not None
        server.start()
        httpd = ServingHTTPServer(server, args.host, 0)
        httpd.serve_in_background()
        try:
            image = np.zeros((3, 16, 16)).tolist()
            request = urllib.request.Request(
                httpd.url + "/predict", data=json.dumps({"input": image}).encode()
            )
            with urllib.request.urlopen(request, timeout=30) as response:
                body = json.load(response)
            assert np.array(body["outputs"]).shape == (1, 10)
        finally:
            httpd.shutdown()
            httpd.server_close()
            server.stop()

    def test_serve_bad_args_exit_cleanly(self, capsys):
        assert main(["serve", "--model", "patternnet", "--max-batch", "0"]) == 2
        assert main(["serve", "--model", "patternnet", "--workers", "0"]) == 2
        assert main(["serve", "--model", "patternnet",
                     "--bundle", "/nonexistent/bundle.npz"]) == 2
        assert main(["serve", "--model", "patternnet", "--patterns", "8"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_serve_port_out_of_range_exits_cleanly(self, capsys):
        assert main(["serve", "--model", "patternnet", "--port", "70000"]) == 2
        assert "cannot bind" in capsys.readouterr().err

    def test_serve_list_models(self, capsys):
        assert main(["serve", "--list-models"]) == 0
        out = capsys.readouterr().out
        assert "patternnet" in out and "vgg16_cifar" in out and "3x32x32" in out

    def test_serve_port_in_use_exits_cleanly(self, capsys):
        import socket

        blocker = socket.socket()
        blocker.bind(("127.0.0.1", 0))
        blocker.listen(1)
        port = blocker.getsockname()[1]
        try:
            assert main(["serve", "--model", "patternnet",
                         "--port", str(port)]) == 2
            assert "cannot bind" in capsys.readouterr().err
        finally:
            blocker.close()

    def test_chip(self, capsys):
        assert main(["chip"]) == 0
        out = capsys.readouterr().out
        assert "Pattern SRAM" in out
        assert "8.00" in out

    def test_unknown_model_rejected(self):
        with pytest.raises(SystemExit):
            main(["report", "--model", "alexnet"])

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])
