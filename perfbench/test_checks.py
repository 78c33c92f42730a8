"""The benchmark's result checks reject corrupted results.

    python3 perfbench/test_checks.py

Each test takes a result that passes its check, corrupts one piece of it
(an entry of an isomorphism certificate, the degree of an Ext witness, a
CLI payload) and shows that the check then fails.
"""

import contextlib
import io
import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
from checks import CheckFailed  # noqa: E402


def _kx2_regular():
    from monomod import QQ, regular_modules
    from workloads import _kx2

    return regular_modules(_kx2(QQ))[0]


class IsoCertificate(unittest.TestCase):
    def test_corrupted_entry_is_rejected(self):
        import random

        from monomod import is_isomorphic
        from workloads import base_change

        M = _kx2_regular()
        N = base_change(M, random.Random(3))
        verdict = is_isomorphic(M, N, seed=0)
        self.assertEqual(verdict.status, "holds")
        rows = checks.rows_of(verdict.certificate.matrix)
        checks.check_iso_certificate(rows, M, N)
        rows[0][0] += 1
        with self.assertRaises(CheckFailed):
            checks.check_iso_certificate(rows, M, N)

    def test_singular_intertwiner_is_rejected(self):
        M = _kx2_regular()
        x_action = checks.rows_of(M.actions[1])   # right multiplication commutes
        with self.assertRaisesRegex(CheckFailed, "not invertible"):
            checks.check_iso_certificate(x_action, M, M)


class ExtWitness(unittest.TestCase):
    def test_corrupted_degree_is_rejected(self):
        from monomod import is_semi_gp
        from monomod.gallery import lsgp_example

        S2 = lsgp_example()["modules"][1]
        verdict = is_semi_gp(S2, 4)
        self.assertEqual(verdict.status, "fails")
        witness = dict(verdict.witness)
        checks.check_ext_witness(S2, witness)
        witness["degree"] += 1
        with self.assertRaises(CheckFailed):
            checks.check_ext_witness(S2, witness)

    def test_corrupted_dimension_is_rejected(self):
        from monomod import is_semi_gp
        from monomod.gallery import lsgp_example

        S2 = lsgp_example()["modules"][1]
        witness = dict(is_semi_gp(S2, 4).witness)
        witness["ext_dim"] += 1
        with self.assertRaises(CheckFailed):
            checks.check_ext_witness(S2, witness)


class CliPayload(unittest.TestCase):
    def _call(self, argv):
        from monomod import cli

        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli.main(argv)
        return rc, out.getvalue()

    def test_changed_byte_is_rejected(self):
        argv = ["verify", "loop-arrow-sgp", "--seed", "3"]
        first, second = self._call(argv), self._call(argv)
        checks.check_cli_repeat(first, second)
        rc, text = second
        corrupted = (rc, text.replace('"pass"', '"pasS"', 1))
        with self.assertRaises(CheckFailed):
            checks.check_cli_repeat(first, corrupted)

    def test_failed_claim_is_rejected(self):
        rc, text = self._call(["verify", "loop-arrow-sgp", "--seed", "3"])
        payload = json.loads(text)
        payload["claims"][0]["status"] = "fail"
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
        with self.assertRaises(CheckFailed):
            checks.check_cli_repeat((rc, text), (rc, text))

    def test_nonzero_exit_is_rejected(self):
        rc, text = self._call(["verify", "loop-arrow-sgp", "--seed", "3"])
        with self.assertRaises(CheckFailed):
            checks.check_cli_repeat((1, text), (rc, text))


class Differentials(unittest.TestCase):
    def test_resolution_of_a_simple(self):
        from monomod.gallery import lsgp_example

        S2 = lsgp_example()["modules"][1]
        checks.check_resolution(S2, 3)


if __name__ == "__main__":
    unittest.main()
