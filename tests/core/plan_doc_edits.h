#pragma once

/// ReplayPlan document edits shared by the plan-store and package tests.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <vector>

#include "common/json.h"

namespace mystique::core {

/// Two edits of a plan document, each giving a member the writer may omit
/// a value of the wrong type: a compiled-IR op's "kind" becomes 3 and a
/// live fused group's "dead" becomes "yes".  Restoring either must be a
/// ParseError, never the value an absent member stands for (compiled_ir,
/// false).  The plan must come from an opt_level 1 build that fused a
/// chain.
inline std::vector<std::function<void(Json&)>>
mistyped_optional_member_edits()
{
    return {
        [](Json& plan) {
            Json ops = plan.at("ops");
            auto op = std::find_if(ops.as_array().begin(), ops.as_array().end(),
                                   [](const Json& o) { return !o.contains("kind"); });
            ASSERT_NE(op, ops.as_array().end()) << "expected a compiled-IR op";
            op->set("kind", Json(3));
            plan.set("ops", std::move(ops));
        },
        [](Json& plan) {
            ASSERT_TRUE(plan.contains("fused_groups")) << "expected an optimized plan";
            Json groups = plan.at("fused_groups");
            auto g = std::find_if(groups.as_array().begin(), groups.as_array().end(),
                                  [](const Json& gj) { return !gj.contains("dead"); });
            ASSERT_NE(g, groups.as_array().end()) << "expected a live fused group";
            g->set("dead", Json("yes"));
            plan.set("fused_groups", std::move(groups));
        },
    };
}

} // namespace mystique::core
