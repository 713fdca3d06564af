"""SARIF 2.1.0 serialization for CI annotation and editor ingestion.

One run, one tool (``odr-analyze``), one result per finding.  The
shape follows the subset GitHub's code-scanning upload and the
``::error`` annotation bridge consume: rule metadata in
``tool.driver.rules``, physical locations with 1-based line/column,
and the call-chain evidence preserved in each result's ``codeFlows``
plus a ``properties.detail`` bag, so every field of a finding is in
its result.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Sequence

from repro.devtools.analyzer.findings import Finding
from repro.devtools.analyzer.rules import RULES

__all__ = ["to_sarif"]

_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)
_TOOL_NAME = "odr-analyze"


def to_sarif(findings: Sequence[Finding]) -> str:
    """Serialize findings as one SARIF 2.1.0 run."""
    used_rules = sorted({f.rule for f in findings} | set(RULES))
    rules = [
        {
            "id": rule_id,
            "shortDescription": {"text": RULES.get(rule_id, rule_id)},
        }
        for rule_id in used_rules
    ]
    rule_index = {rule_id: i for i, rule_id in enumerate(used_rules)}
    results: List[Dict[str, Any]] = []
    for finding in findings:
        result: Dict[str, Any] = {
            "ruleId": finding.rule,
            "ruleIndex": rule_index[finding.rule],
            "level": "error",
            "message": {"text": finding.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {"uri": finding.path},
                        "region": {
                            "startLine": finding.line,
                            "startColumn": finding.col,
                        },
                    }
                }
            ],
            "properties": {"detail": finding.detail},
        }
        if finding.chain:
            result["codeFlows"] = [
                {
                    "threadFlows": [
                        {
                            "locations": [
                                {
                                    "location": {
                                        "message": {"text": hop},
                                        "physicalLocation": {
                                            "artifactLocation": {
                                                "uri": finding.path
                                            }
                                        },
                                    }
                                }
                                for hop in finding.chain
                            ]
                        }
                    ]
                }
            ]
        results.append(result)
    payload = {
        "$schema": _SCHEMA,
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": _TOOL_NAME,
                        "informationUri": "docs/STATIC_ANALYSIS.md",
                        "rules": rules,
                    }
                },
                "results": results,
            }
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True)
